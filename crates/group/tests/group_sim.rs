//! Simulation-driven integration tests for the group communication layer.

use aqf_group::endpoint::{GroupMembership, SENT_BUFFER_CAPACITY};
use aqf_group::{
    EndpointConfig, Envelope, FailureDetector, GroupEndpoint, GroupEvent, GroupId, GroupMsg, View,
    ViewId,
};
use aqf_sim::{Actor, ActorId, Context, DelayModel, SimDuration, SimTime, Timer, World};
use proptest::prelude::*;
use std::rc::Rc;

const GROUP: GroupId = GroupId(1);
const APP_TIMER_SEND: u32 = 1;

type Msg = Envelope<u64>;

/// Test host: joins (or observes) one group, optionally multicasts a stream
/// of numbered payloads, and records everything it sees.
struct Host {
    ep: GroupEndpoint<u64>,
    /// Payloads to multicast, one per send tick.
    to_send: Vec<u64>,
    send_interval: SimDuration,
    /// Multicast all of `to_send` in the first send tick instead of one
    /// payload per tick.
    burst: bool,
    next: usize,
    delivered: Vec<(ActorId, u64)>,
    /// When each entry of `delivered` was handed up.
    delivered_at: Vec<SimTime>,
    views: Vec<Rc<View>>,
    /// When each entry of `views` was installed (or observed).
    view_at: Vec<SimTime>,
    directs: Vec<(ActorId, u64)>,
    /// Envelopes delivered to this host: heartbeats, view announces, stream
    /// tips, and everything else.
    received: [u64; 4],
}

impl Host {
    fn new(ep: GroupEndpoint<u64>, to_send: Vec<u64>, send_interval: SimDuration) -> Self {
        Self {
            ep,
            to_send,
            send_interval,
            burst: false,
            next: 0,
            delivered: Vec::new(),
            delivered_at: Vec::new(),
            views: Vec::new(),
            view_at: Vec::new(),
            directs: Vec::new(),
            received: [0; 4],
        }
    }

    fn absorb(&mut self, events: Vec<GroupEvent<u64>>, now: SimTime) {
        for ev in events {
            match ev {
                GroupEvent::Delivered {
                    sender, payload, ..
                } => {
                    self.delivered.push((sender, payload));
                    self.delivered_at.push(now);
                }
                GroupEvent::ViewChanged { view, .. } => {
                    self.views.push(view);
                    self.view_at.push(now);
                }
                GroupEvent::Direct { sender, payload } => self.directs.push((sender, payload)),
            }
        }
    }
}

impl Actor<Msg> for Host {
    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.ep.on_start(ctx);
        if !self.to_send.is_empty() {
            ctx.set_timer(APP_TIMER_SEND, self.send_interval);
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.ep.on_restart(ctx);
        if self.next < self.to_send.len() {
            ctx.set_timer(APP_TIMER_SEND, self.send_interval);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.received[match &*msg {
            GroupMsg::Heartbeat { .. } => 0,
            GroupMsg::ViewAnnounce { .. } => 1,
            GroupMsg::StreamStatus { .. } => 2,
            _ => 3,
        }] += 1;
        let events = self.ep.handle_message(from, msg, ctx);
        self.absorb(events, ctx.now());
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, Msg>) {
        if let Some(events) = self.ep.handle_timer(timer, ctx) {
            self.absorb(events, ctx.now());
            return;
        }
        if timer.kind == APP_TIMER_SEND {
            while let Some(&payload) = self.to_send.get(self.next) {
                self.next += 1;
                self.ep.multicast(GROUP, payload, ctx);
                if !self.burst {
                    break;
                }
            }
            if self.next < self.to_send.len() {
                ctx.set_timer(APP_TIMER_SEND, self.send_interval);
            }
        }
    }
}

fn member_endpoint(me: ActorId, members: &[ActorId], observers: &[ActorId]) -> GroupEndpoint<u64> {
    let view = View::new(GROUP, ViewId(0), members.to_vec());
    GroupEndpoint::new(
        me,
        EndpointConfig::default(),
        vec![GroupMembership {
            view,
            observers: observers.to_vec(),
        }],
        vec![],
    )
}

fn observer_endpoint(me: ActorId, members: &[ActorId]) -> GroupEndpoint<u64> {
    let view = View::new(GROUP, ViewId(0), members.to_vec());
    GroupEndpoint::new(me, EndpointConfig::default(), vec![], vec![view])
}

/// Builds a world with `n` members; member 0 will multicast `payload_count`
/// messages. Returns (world, member ids).
fn build(n: usize, payload_count: u64, seed: u64) -> (World<Msg>, Vec<ActorId>) {
    let mut world: World<Msg> = World::new(seed);
    let ids: Vec<ActorId> = (0..n).map(ActorId::from_index).collect();
    for (i, &id) in ids.iter().enumerate() {
        let ep = member_endpoint(id, &ids, &[]);
        let to_send = if i == 0 {
            (0..payload_count).collect()
        } else {
            Vec::new()
        };
        let host = Host::new(ep, to_send, SimDuration::from_millis(10));
        let got = world.add_actor(Box::new(host));
        assert_eq!(got, id);
    }
    (world, ids)
}

#[test]
fn fifo_multicast_all_members_in_order() {
    let (mut world, ids) = build(4, 50, 1);
    world.run_for(SimDuration::from_secs(5));
    for &id in &ids[1..] {
        let from_a = payloads_from(&world, id, ids[0]);
        assert_eq!(from_a, (0..50).collect::<Vec<_>>(), "receiver {id}");
    }
    // The sender does not deliver to itself.
    assert!(world.actor::<Host>(ids[0]).unwrap().delivered.is_empty());
}

#[test]
fn fifo_multicast_survives_heavy_loss() {
    let (mut world, ids) = build(3, 40, 2);
    world.net_mut().set_loss_probability(0.3);
    world.run_for(SimDuration::from_secs(30));
    for &id in &ids[1..] {
        let host = world.actor::<Host>(id).unwrap();
        let from_a = payloads_from(&world, id, ids[0]);
        assert_eq!(from_a, (0..40).collect::<Vec<_>>(), "receiver {id}");
        // Loss recovery visibly happened: gaps were nacked and the
        // receivers delivered exactly what they report.
        let stats = host.ep.stats();
        assert!(
            stats.nacks_sent > 0,
            "receiver {id} never nacked under 30% loss"
        );
        assert_eq!(stats.delivered, host.delivered.len() as u64);
    }
    // The sender served retransmissions.
    let sender = world.actor::<Host>(ids[0]).unwrap();
    assert!(sender.ep.stats().retransmissions > 0);
    assert_eq!(sender.ep.stats().multicasts_sent, 40);
}

#[test]
fn crash_triggers_view_change_excluding_member() {
    let (mut world, ids) = build(4, 0, 3);
    world.schedule_crash(ids[2], SimTime::from_secs(2));
    world.run_for(SimDuration::from_secs(6));
    for &id in [ids[0], ids[1], ids[3]].iter() {
        let host = world.actor::<Host>(id).unwrap();
        let latest = host.ep.view(GROUP).unwrap();
        assert!(
            !latest.contains(ids[2]),
            "member {id} still sees crashed node"
        );
        assert_eq!(latest.len(), 3);
        assert!(host.views.iter().any(|v| !v.contains(ids[2])));
    }
}

#[test]
fn leader_crash_fails_over_to_next_rank() {
    let (mut world, ids) = build(4, 0, 4);
    // ids[0] is the initial leader.
    world.schedule_crash(ids[0], SimTime::from_secs(2));
    world.run_for(SimDuration::from_secs(8));
    for &id in &ids[1..] {
        let host = world.actor::<Host>(id).unwrap();
        let latest = host.ep.view(GROUP).unwrap();
        assert_eq!(
            latest.leader(),
            ids[1],
            "member {id} should see {} lead",
            ids[1]
        );
        assert!(!latest.contains(ids[0]));
    }
    assert!(world.actor::<Host>(ids[1]).unwrap().ep.is_leader(GROUP));
}

#[test]
fn restarted_member_rejoins_with_fresh_incarnation() {
    let (mut world, ids) = build(3, 0, 5);
    world.schedule_crash(ids[2], SimTime::from_secs(2));
    world.schedule_restart(ids[2], SimTime::from_secs(6));
    world.run_for(SimDuration::from_secs(14));
    // Everyone converges on a view containing the rejoined member.
    for &id in &ids {
        let host = world.actor::<Host>(id).unwrap();
        let latest = host.ep.view(GROUP).unwrap();
        assert!(latest.contains(ids[2]), "member {id} lacks rejoined node");
        assert_eq!(latest.len(), 3);
    }
    assert_eq!(world.actor::<Host>(ids[2]).unwrap().ep.incarnation(), 1);
    assert!(world.actor::<Host>(ids[2]).unwrap().ep.is_member(GROUP));
}

#[test]
fn multicast_after_rejoin_reaches_members() {
    let (mut world, ids) = build(3, 0, 6);
    world.schedule_crash(ids[2], SimTime::from_secs(1));
    world.schedule_restart(ids[2], SimTime::from_secs(4));
    world.run_for(SimDuration::from_secs(10));
    // Inject a multicast from the rejoined member via its host.
    let host = world.actor_mut::<Host>(ids[2]).unwrap();
    host.to_send = vec![777];
    host.next = 0;
    // Kick it with an external message? Simpler: re-arm through restart is
    // done; use the send timer path by scheduling another restart-free tick.
    // Directly drive: we emulate by scheduling a crash-free "restart" of the
    // send timer through a fresh external round: run the world and let the
    // pending maintenance continue, then check via a second host API.
    // Instead, test the low-level path: fresh incarnation data is accepted.
    let inc = world.actor::<Host>(ids[2]).unwrap().ep.incarnation();
    assert_eq!(inc, 1);
    world.send_external(
        ids[0],
        GroupMsg::Data(aqf_group::DataMsg {
            group: GROUP,
            incarnation: inc,
            seq: 0,
            payload: 777,
        })
        .seal(),
        world.now() + SimDuration::from_millis(1),
    );
    // The external sender id is EXTERNAL, so instead assert via ids[1]:
    world.run_for(SimDuration::from_secs(1));
    let a0 = world.actor::<Host>(ids[0]).unwrap();
    assert!(a0.delivered.iter().any(|&(_, p)| p == 777));
}

#[test]
fn observers_learn_views_and_can_open_group_multicast() {
    let mut world: World<Msg> = World::new(7);
    let members: Vec<ActorId> = (0..3).map(ActorId::from_index).collect();
    let observer_id = ActorId::from_index(3);
    for &id in &members {
        let ep = member_endpoint(id, &members, &[observer_id]);
        world.add_actor(Box::new(Host::new(
            ep,
            vec![],
            SimDuration::from_millis(10),
        )));
    }
    let obs_ep = observer_endpoint(observer_id, &members);
    // The observer multicasts into the group it does not belong to.
    let obs = world.add_actor(Box::new(Host::new(
        obs_ep,
        vec![41, 42, 43],
        SimDuration::from_millis(50),
    )));
    assert_eq!(obs, observer_id);
    world.schedule_crash(members[2], SimTime::from_secs(2));
    world.run_for(SimDuration::from_secs(6));

    // Members got the observer's open-group multicasts in order.
    for &id in &members[..2] {
        let from_obs = payloads_from(&world, id, observer_id);
        assert_eq!(from_obs, vec![41, 42, 43]);
    }
    // The observer learned about the crash through announced views.
    let obs_host = world.actor::<Host>(observer_id).unwrap();
    let latest = obs_host.ep.view(GROUP).unwrap();
    assert!(!latest.contains(members[2]));
    assert!(!obs_host.views.is_empty());
}

#[test]
fn deterministic_same_seed() {
    fn run(seed: u64) -> Vec<(ActorId, u64)> {
        let (mut world, ids) = build(4, 30, seed);
        world.net_mut().set_loss_probability(0.1);
        world.run_for(SimDuration::from_secs(10));
        world.actor::<Host>(ids[1]).unwrap().delivered.clone()
    }
    assert_eq!(run(99), run(99));
}

/// A group message injected from outside the world arrives from
/// [`aqf_sim::world::EXTERNAL`] (`u32::MAX`), an id no world hands out. The
/// endpoint notes when it last heard that sender like any other's; nothing
/// it keeps may be sized by the id. The injected stream is delivered, a
/// stray `Leave` is ignored, and the group keeps its one full view.
#[test]
fn group_message_from_outside_the_world_is_handled() {
    use aqf_sim::world::EXTERNAL;
    let (mut world, ids) = build(3, 0, 5);
    for seq in 0..2 {
        for &to in &ids[..2] {
            let data = GroupMsg::Data(aqf_group::DataMsg {
                group: GROUP,
                incarnation: 0,
                seq,
                payload: 70 + seq,
            });
            world.send_external(to, data.seal(), SimTime::from_millis(300 + seq));
        }
    }
    let leave = GroupMsg::Leave { group: GROUP }.seal();
    world.send_external(ids[2], leave, SimTime::from_millis(400));
    world.run_for(SimDuration::from_secs(5));
    for &id in &ids[..2] {
        assert_eq!(payloads_from(&world, id, EXTERNAL), vec![70, 71], "{id}");
    }
    assert_one_full_view(&world, &ids);
    assert_eq!(host(&world, ids[0]).ep.view(GROUP).unwrap().id, ViewId(0));
}

#[test]
fn direct_messages_delivered() {
    struct DirectSender {
        ep: GroupEndpoint<u64>,
        to: ActorId,
    }
    impl Actor<Msg> for DirectSender {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.ep.on_start(ctx);
            self.ep.send_direct(self.to, 5, ctx);
        }
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            let _ = self.ep.handle_message(from, msg, ctx);
        }
        fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, Msg>) {
            let _ = self.ep.handle_timer(timer, ctx);
        }
    }
    let mut world: World<Msg> = World::new(8);
    let ids: Vec<ActorId> = (0..2).map(ActorId::from_index).collect();
    let receiver_ep = member_endpoint(ids[0], &ids, &[]);
    world.add_actor(Box::new(Host::new(
        receiver_ep,
        vec![],
        SimDuration::from_millis(10),
    )));
    let sender_ep = member_endpoint(ids[1], &ids, &[]);
    world.add_actor(Box::new(DirectSender {
        ep: sender_ep,
        to: ids[0],
    }));
    world.run_for(SimDuration::from_secs(1));
    let host = world.actor::<Host>(ids[0]).unwrap();
    assert_eq!(host.directs, vec![(ids[1], 5)]);
}

#[test]
fn tail_loss_recovered_by_stream_status() {
    // Lose the *last* messages of a burst: no later data message will ever
    // reveal the gap, so only the periodic stream-tip advertisement can.
    let (mut world, ids) = build(3, 30, 14);
    // Heavy loss while the burst is in flight...
    world.net_mut().set_loss_probability(0.5);
    world.run_for(SimDuration::from_secs(2));
    // ...then a clean network for the recovery phase. No new data is sent
    // after this point; recovery must come from StreamStatus + nacks.
    world.net_mut().set_loss_probability(0.0);
    world.run_for(SimDuration::from_secs(20));
    for &id in &ids[1..] {
        let from_a = payloads_from(&world, id, ids[0]);
        assert_eq!(from_a, (0..30).collect::<Vec<_>>(), "receiver {id}");
    }
}

#[test]
fn buffer_overflow_gap_is_skipped_not_wedged() {
    // A receiver partitioned long enough that the sender's bounded
    // retransmission buffer no longer covers the gap must fast-forward
    // (GapSkip) instead of wedging behind the unfillable gap forever.
    let sent = SENT_BUFFER_CAPACITY as u64 + 1000;
    let mut world: World<Msg> = World::new(31);
    let ids: Vec<ActorId> = (0..3).map(ActorId::from_index).collect();
    let view = View::new(GROUP, ViewId(0), ids.clone());
    let config = EndpointConfig {
        // Long failure timeout so the partitioned member is never excluded
        // from the view: this isolates the buffer-overflow path.
        failure_timeout: SimDuration::from_secs(3600),
        ..EndpointConfig::default()
    };
    for (i, &id) in ids.iter().enumerate() {
        let ep = GroupEndpoint::new(
            id,
            config.clone(),
            vec![GroupMembership {
                view: view.clone(),
                observers: vec![],
            }],
            vec![],
        );
        let to_send = if i == 0 {
            (0..sent).collect()
        } else {
            Vec::new()
        };
        world.add_actor(Box::new(Host::new(
            ep,
            to_send,
            SimDuration::from_millis(1),
        )));
    }
    // Partition receiver 2 from everyone while the sender multicasts one
    // message a millisecond: it misses more than the buffer holds.
    let heal = SimTime::from_millis(sent + 1000);
    world.schedule_partition(ids[0], ids[2], SimTime::from_millis(500));
    world.schedule_partition(ids[1], ids[2], SimTime::from_millis(500));
    world.schedule_heal(ids[0], ids[2], heal);
    world.schedule_heal(ids[1], ids[2], heal);
    world.run_for(SimDuration::from_secs(30));

    let from_a = payloads_from(&world, ids[2], ids[0]);
    // The receiver skipped the unrecoverable middle but still received the
    // stream's tail (the buffered messages), ending caught up rather than
    // wedged.
    assert!(
        from_a.len() < sent as usize,
        "nothing was skipped: the partition fit in the buffer"
    );
    assert!(
        from_a.contains(&(sent - 1)),
        "receiver wedged: tail never delivered ({} delivered)",
        from_a.len()
    );
    assert!(from_a.windows(2).all(|w| w[0] < w[1]), "FIFO order held");
    // And the healthy receiver got everything.
    let all = payloads_from(&world, ids[1], ids[0]);
    assert_eq!(all, (0..sent).collect::<Vec<_>>());
}

#[test]
fn partition_minority_cannot_install_views() {
    // Isolate the leader of a 4-member group: the majority replaces it,
    // while the isolated minority (1 of 4) must not forge its own views
    // (primary-partition rule).
    let (mut world, ids) = build(4, 0, 15);
    for &other in &ids[1..] {
        world.schedule_partition(ids[0], other, SimTime::from_secs(2));
    }
    world.run_for(SimDuration::from_secs(8));
    // Majority side: a fresh view led by ids[1], without ids[0].
    for &id in &ids[1..] {
        let host = world.actor::<Host>(id).unwrap();
        let v = host.ep.view(GROUP).unwrap();
        assert!(
            !v.contains(ids[0]),
            "majority must exclude the isolated leader"
        );
        assert_eq!(v.leader(), ids[1]);
    }
    // Minority side: still on the stale full view (no singleton view).
    let isolated = world.actor::<Host>(ids[0]).unwrap();
    assert_eq!(
        isolated.ep.view(GROUP).unwrap().len(),
        4,
        "minority keeps its last view instead of forging a smaller one"
    );
}

#[test]
fn healed_partition_remerges_members() {
    let (mut world, ids) = build(4, 0, 16);
    for &other in &ids[1..] {
        world.schedule_partition(ids[0], other, SimTime::from_secs(2));
    }
    for &other in &ids[1..] {
        world.schedule_heal(ids[0], other, SimTime::from_secs(6));
    }
    world.run_for(SimDuration::from_secs(14));
    // Everyone converges on one view containing all four members again.
    for &id in &ids {
        let host = world.actor::<Host>(id).unwrap();
        let v = host.ep.view(GROUP).unwrap();
        assert_eq!(v.len(), 4, "member {id} re-merged");
    }
    // One leader again: lowest-ranked member of the merged view.
    let leaders: Vec<_> = ids
        .iter()
        .filter(|&&id| world.actor::<Host>(id).unwrap().ep.is_leader(GROUP))
        .collect();
    assert_eq!(leaders.len(), 1);
}

/// One randomized churn scenario for the membership properties below: `n`
/// members, one victim hit by a randomly chosen fault (near-threshold
/// heartbeat loss, a crash/restart cycle, or a full partition) that heals
/// mid-run, then a long quiet tail for re-admission hold-downs to expire.
/// Returns the total views installed across all members.
fn churn_scenario(
    n: usize,
    victim: usize,
    fault: u8,
    loss_centi: u64,
    fault_secs: u64,
    seed: u64,
    damping: bool,
) -> u64 {
    let config = EndpointConfig {
        damping,
        ..EndpointConfig::default()
    };
    let (mut world, ids) = build_with(n, &config, seed);
    let victim = ids[victim];
    let start = SimTime::from_secs(5);
    let heal = start + SimDuration::from_secs(fault_secs);
    match fault {
        // Near-threshold heartbeat loss: alive, but silences straddle the
        // failure timeout.
        0 => {
            world.schedule_lossy(victim, loss_centi as f64 / 100.0, start);
            world.schedule_restore(victim, heal);
        }
        // Crash then restart: rejoin runs through the join-request path,
        // where damping hold-downs apply.
        1 => {
            world.schedule_crash(victim, start);
            world.schedule_restart(victim, heal);
        }
        // Full partition from everyone, then heal: the majority excludes
        // the victim; the minority side must not forge views.
        _ => {
            for &other in &ids {
                if other != victim {
                    world.schedule_partition(victim, other, start);
                }
            }
            for &other in &ids {
                if other != victim {
                    world.schedule_heal(victim, other, heal);
                }
            }
        }
    }
    // Quiet tail: longer than the maximum damping hold-down (30 s default)
    // plus detection and re-merge time.
    world.run_until(heal + SimDuration::from_secs(45));

    let mut total_views = 0;
    for &id in &ids {
        let host = world.actor::<Host>(id).unwrap();
        total_views += host.ep.stats().views_installed;
        // Safety: the primary-partition rule means no member ever installs
        // a minority view — split-brain would need two disjoint view
        // majorities, which a majority-of-roster floor makes impossible.
        for v in &host.views {
            assert!(
                2 * v.len() > n,
                "member {id} installed minority view {:?} of roster {n}",
                v.members()
            );
        }
        // Views install in strictly increasing id order (a restarted
        // victim starts a fresh incarnation, so skip it in that case).
        if !(fault == 1 && id == victim) {
            assert!(
                host.views.windows(2).all(|w| w[0].id < w[1].id),
                "member {id} saw view ids regress"
            );
        }
        // Liveness: every member re-merged — one full view, one leader.
        let latest = host.ep.view(GROUP).unwrap();
        assert_eq!(
            latest.len(),
            n,
            "member {id} not re-merged after heal + quiet tail"
        );
    }
    let leaders = ids
        .iter()
        .filter(|&&id| world.actor::<Host>(id).unwrap().ep.is_leader(GROUP))
        .count();
    assert_eq!(leaders, 1, "exactly one leader after convergence");
    total_views
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random churn — near-threshold loss, crash/restart, or partition on
    /// a random victim — never yields split-brain (no minority views, no
    /// view-id regressions) and always re-merges to one full view with one
    /// leader, with or without flap damping. Damping reshapes flap timing
    /// (hold-downs shift when re-merges land), so it is not pointwise
    /// monotone in total views; what it must never do is make view churn
    /// explode — re-admissions are spaced by exponentially growing
    /// hold-downs, so the damped run stays within a constant factor of the
    /// undamped one.
    #[test]
    fn churn_converges_without_split_brain(
        n in 4usize..7,
        victim in 0usize..4,
        fault in 0u8..3,
        loss_centi in 35u64..60,
        fault_secs in 15u64..40,
        seed in 0u64..1_000,
    ) {
        let victim = victim % n;
        let undamped = churn_scenario(n, victim, fault, loss_centi, fault_secs, seed, false);
        let damped = churn_scenario(n, victim, fault, loss_centi, fault_secs, seed, true);
        prop_assert!(
            damped <= 2 * undamped + 10,
            "damping blew up view churn: {damped} views vs {undamped} undamped"
        );
    }
}

#[test]
fn slow_host_does_not_stall_others() {
    let (mut world, ids) = build(3, 20, 9);
    // Make one receiver's inbound link very slow; the other still gets
    // everything promptly.
    world
        .net_mut()
        .set_dest_delay(ids[2], DelayModel::Constant(SimDuration::from_millis(400)));
    world.run_for(SimDuration::from_secs(1));
    let fast = world.actor::<Host>(ids[1]).unwrap();
    assert_eq!(
        fast.delivered.iter().filter(|(s, _)| *s == ids[0]).count(),
        20
    );
}

// ---------------------------------------------------------------------------
// Liveness outcomes: what a crash, a cut link, a restart or a lossy member
// does to the installed views, and by when. Written against views,
// membership and times only — never against which messages carry the
// evidence — so they hold for any heartbeat topology.
// ---------------------------------------------------------------------------

fn tick() -> SimDuration {
    EndpointConfig::default().tick_interval
}

fn failure_timeout() -> SimDuration {
    EndpointConfig::default().failure_timeout
}

/// `n` members with `config`, nobody multicasting.
fn build_with(n: usize, config: &EndpointConfig, seed: u64) -> (World<Msg>, Vec<ActorId>) {
    build_observed(n, 0, config, seed)
}

/// `n` members (the first `n` ids returned) watched by `o` observers (the
/// rest), all with `config`, nobody multicasting.
fn build_observed(
    n: usize,
    o: usize,
    config: &EndpointConfig,
    seed: u64,
) -> (World<Msg>, Vec<ActorId>) {
    let mut world: World<Msg> = World::new(seed);
    let ids: Vec<ActorId> = (0..n + o).map(ActorId::from_index).collect();
    let (members, observers) = ids.split_at(n);
    let view = View::new(GROUP, ViewId(0), members.to_vec());
    for &id in &ids {
        let ep = if members.contains(&id) {
            let membership = GroupMembership {
                view: view.clone(),
                observers: observers.to_vec(),
            };
            GroupEndpoint::new(id, config.clone(), vec![membership], vec![])
        } else {
            GroupEndpoint::new(id, config.clone(), vec![], vec![view.clone()])
        };
        world.add_actor(Box::new(Host::new(
            ep,
            vec![],
            SimDuration::from_millis(10),
        )));
    }
    (world, ids)
}

fn host(world: &World<Msg>, id: ActorId) -> &Host {
    world.actor::<Host>(id).unwrap()
}

/// When `at` first installed a view satisfying `pred`.
fn first_view_at(
    world: &World<Msg>,
    at: ActorId,
    pred: impl Fn(&View, SimTime) -> bool,
) -> Option<SimTime> {
    let h = host(world, at);
    h.views
        .iter()
        .zip(&h.view_at)
        .find(|(v, t)| pred(v, **t))
        .map(|(_, t)| *t)
}

/// When `at` first installed a view without `gone`.
fn excluded_at(world: &World<Msg>, at: ActorId, gone: ActorId) -> Option<SimTime> {
    first_view_at(world, at, |v, _| !v.contains(gone))
}

/// Everyone in `ids` holds the same full view, and exactly one of them
/// leads it.
fn assert_one_full_view(world: &World<Msg>, ids: &[ActorId]) {
    let reference = host(world, ids[0]).ep.view(GROUP).unwrap().clone();
    assert_eq!(reference.len(), ids.len(), "full view");
    for &id in ids {
        assert_eq!(host(world, id).ep.view(GROUP).unwrap(), &reference);
        assert!(host(world, id).ep.is_member(GROUP), "{id} is a member");
    }
    let leaders = ids
        .iter()
        .filter(|&&id| host(world, id).ep.is_leader(GROUP))
        .count();
    assert_eq!(leaders, 1, "exactly one leader");
}

/// Crashes the members at `victims` (ranks) together, mid-tick, and checks
/// that every survivor installs a view without any of them within `bound`
/// of the crash.
fn crash_excluded_within(
    n: usize,
    victims: &[usize],
    bound: SimDuration,
    config: &EndpointConfig,
    seed: u64,
) {
    let (mut world, ids) = build_with(n, config, seed);
    let crash = SimTime::from_millis(2_100);
    for &v in victims {
        world.schedule_crash(ids[v], crash);
    }
    world.run_until(crash + bound + SimDuration::from_secs(2));
    let survivors: Vec<ActorId> = (0..n)
        .filter(|r| !victims.contains(r))
        .map(|r| ids[r])
        .collect();
    for &s in &survivors {
        for &v in victims {
            let at = excluded_at(&world, s, ids[v])
                .unwrap_or_else(|| panic!("n={n}: {s} never excluded crashed {}", ids[v]));
            assert!(
                at <= crash + bound,
                "n={n}: {s} excluded {} after {} (bound {bound})",
                ids[v],
                at.saturating_since(crash),
            );
        }
        let latest = host(&world, s).ep.view(GROUP).unwrap();
        assert_eq!(latest.len(), n - victims.len(), "nobody else excluded");
    }
    let lowest = survivors[0];
    assert!(host(&world, lowest).ep.is_leader(GROUP));
}

fn leader_crash_scenario(config: &EndpointConfig) {
    for (seed, n) in [(41, 5), (42, 17), (43, 41)] {
        crash_excluded_within(n, &[0], failure_timeout() + tick() * 3, config, seed);
    }
}

fn junior_crash_scenario(config: &EndpointConfig) {
    for (seed, n) in [(44, 5), (45, 17), (46, 41)] {
        crash_excluded_within(n, &[n / 2], failure_timeout() + tick() * 3, config, seed);
    }
}

/// Cuts the link between the leader and one junior (rank 3 of 5) for 7 s.
/// The leader excludes the junior; the junior — which still hears everyone
/// but the leader — learns the view that excludes it while the link is
/// still down, and is re-admitted once it heals.
fn leader_junior_cut_scenario(config: &EndpointConfig) {
    let (mut world, ids) = build_with(5, config, 47);
    let (leader, junior) = (ids[0], ids[3]);
    let (cut, heal) = (SimTime::from_secs(2), SimTime::from_secs(9));
    world.schedule_partition(leader, junior, cut);
    world.schedule_heal(leader, junior, heal);
    world.run_until(heal - SimDuration::from_millis(1));
    for &id in &ids {
        if id != junior {
            let v = host(&world, id).ep.view(GROUP).unwrap();
            assert!(!v.contains(junior), "{id} still counts the cut-off junior");
            assert_eq!(v.len(), 4, "{id}: only the junior is excluded");
            assert_eq!(v.leader(), leader);
        }
    }
    let learned =
        excluded_at(&world, junior, junior).expect("junior never learned of its exclusion");
    assert!(learned < heal);
    assert!(!host(&world, junior).ep.is_member(GROUP));
    world.run_until(heal + SimDuration::from_secs(5));
    assert_one_full_view(&world, &ids);
    assert!(host(&world, leader).ep.is_leader(GROUP));
}

/// Crashes and restarts the lowest-id member, the leader: it is re-admitted
/// as the most junior member, its successor keeps the lead, and its return
/// costs nobody else their membership.
fn lowest_member_restart_scenario(config: &EndpointConfig) {
    let n = 5;
    let (mut world, ids) = build_with(n, config, 48);
    let restart = SimTime::from_secs(6);
    world.schedule_crash(ids[0], SimTime::from_secs(2));
    world.schedule_restart(ids[0], restart);
    world.run_until(SimTime::from_secs(12));
    let readmitted = first_view_at(&world, ids[0], |v, t| t >= restart && v.contains(ids[0]))
        .expect("restarted member never re-admitted");
    assert!(
        readmitted <= restart + tick() * 4,
        "re-admitted at {readmitted}"
    );
    let settle = readmitted + failure_timeout() * 2;
    for &id in &ids {
        let h = host(&world, id);
        for (v, t) in h.views.iter().zip(&h.view_at) {
            if *t > readmitted && *t <= settle {
                assert_eq!(v.len(), n, "{id} saw {v} at {t}: somebody wrongly excluded");
            }
        }
    }
    assert_one_full_view(&world, &ids);
    let view = host(&world, ids[0]).ep.view(GROUP).unwrap();
    assert_eq!(view.leader(), ids[1]);
    assert_eq!(view.rank_of(ids[0]), Some(n - 1));
}

/// One member (rank 2 of 5) loses 15 % of its messages, both ways, for
/// 60 s. Returns the views installed, summed over members and over
/// `seeds`; every run must end re-merged.
fn lossy_member_views(config: &EndpointConfig, seeds: std::ops::RangeInclusive<u64>) -> u64 {
    let mut total = 0;
    for seed in seeds {
        let (mut world, ids) = build_with(5, config, seed);
        world.schedule_lossy(ids[2], 0.15, SimTime::from_secs(5));
        world.schedule_restore(ids[2], SimTime::from_secs(65));
        world.run_until(SimTime::from_secs(75));
        assert_one_full_view(&world, &ids);
        total += ids
            .iter()
            .map(|&id| host(&world, id).ep.stats().views_installed)
            .sum::<u64>();
    }
    total
}

#[test]
fn leader_crash_is_excluded_within_timeout_plus_three_ticks() {
    leader_crash_scenario(&EndpointConfig::default());
}

#[test]
fn junior_crash_is_excluded_within_timeout_plus_three_ticks() {
    junior_crash_scenario(&EndpointConfig::default());
}

#[test]
fn junior_cut_off_from_leader_learns_its_exclusion_and_returns() {
    leader_junior_cut_scenario(&EndpointConfig::default());
}

#[test]
fn restarted_lowest_member_rejoins_as_junior_without_collateral() {
    lowest_member_restart_scenario(&EndpointConfig::default());
}

/// The leader crashes and restarts before anyone gave up on it. Its knocks
/// do not stand in for the announces it no longer sends: the members give
/// up on it within a timeout of its last announce, the next-ranked member
/// takes over, and the restarted node rejoins as the most junior member.
#[test]
fn leader_restarted_inside_the_failure_timeout_is_replaced_and_rejoins_as_junior() {
    let n = 5;
    let (mut world, ids) = build_with(n, &EndpointConfig::default(), 61);
    let crash = SimTime::from_millis(2_100);
    world.schedule_crash(ids[0], crash);
    world.schedule_restart(ids[0], crash + failure_timeout() / 4);
    world.run_until(SimTime::from_secs(8));
    for &id in &ids[1..] {
        let at = excluded_at(&world, id, ids[0])
            .unwrap_or_else(|| panic!("{id} never gave up on the restarted leader"));
        assert!(
            at <= crash + failure_timeout() + tick() * 3,
            "{id} excluded it {} after the crash",
            at.saturating_since(crash)
        );
    }
    assert_one_full_view(&world, &ids);
    let view = host(&world, ids[1]).ep.view(GROUP).unwrap().clone();
    assert_eq!(view.leader(), ids[1], "the successor keeps the lead");
    assert_eq!(view.rank_of(ids[0]), Some(n - 1), "rejoined as junior");
}

/// A junior (rank 1) crashes and restarts before anyone gave up on it, and
/// the leader crashes later. The restarted junior must be a member again,
/// and some live member must lead, well before 12 s.
#[test]
fn junior_restarted_inside_the_failure_timeout_is_readmitted_before_the_leader_fails() {
    let n = 5;
    let mut wedged = Vec::new();
    for seed in 70..=79 {
        let (mut world, ids) = build_with(n, &EndpointConfig::default(), seed);
        world.schedule_crash(ids[1], SimTime::from_millis(2_100));
        world.schedule_restart(ids[1], SimTime::from_millis(2_400));
        world.schedule_crash(ids[0], SimTime::from_millis(4_100));
        world.run_until(SimTime::from_secs(12));
        let live = &ids[1..];
        let led = live.iter().any(|&id| host(&world, id).ep.is_leader(GROUP));
        let readmitted = host(&world, ids[1]).ep.is_member(GROUP);
        if !(led && readmitted) {
            wedged.push(seed);
        }
    }
    assert!(
        wedged.is_empty(),
        "seeds without a live leader or with rank 1 outside the view: {wedged:?}"
    );
}

/// Views installed under the lossy-member scenario, seeds 1..=1000, when
/// every member heartbeat every other member (the design this file was
/// first written against; seeds 1..=8 alone gave 7). A false exclusion
/// needs four consecutive losses on one link (about one run in eight) and
/// costs about ten installs across the group, so the count over a handful
/// of seeds is a coin toss: it is summed over enough runs to hold ~85
/// exclusions, and a liveness scheme that sends less may not churn more
/// than a quarter above it.
const LOSSY_MEMBER_VIEWS_ALL_TO_ALL: u64 = 859;

#[test]
fn lossy_member_does_not_churn_views() {
    let views = lossy_member_views(&EndpointConfig::default(), 1..=1000);
    println!("lossy member: {views} views installed over seeds 1..=1000");
    assert!(
        4 * views <= 5 * LOSSY_MEMBER_VIEWS_ALL_TO_ALL,
        "{views} views against {LOSSY_MEMBER_VIEWS_ALL_TO_ALL}"
    );
}

// ---------------------------------------------------------------------------
// Leader-rooted liveness (DESIGN.md §4.2–§4.5): what only a design in which
// members heartbeat the head of their rank chain, and a leader needs a
// majority of followers to install a view, can promise.
// ---------------------------------------------------------------------------

/// Whether a fact that last changed `k` ticks ago is re-sent on this tick
/// (at the default configuration, where `failure_timeout` is four ticks):
/// 1, 2 and 4 ticks after the change, then every fourth tick.
fn is_refresh_tick(k: u64) -> bool {
    matches!(k, 1 | 2) || (k >= 4 && k.is_multiple_of(4))
}

/// Envelopes delivered to `ids` so far: heartbeats, view announces, stream
/// tips, and everything else.
fn received_by(world: &World<Msg>, ids: &[ActorId]) -> [u64; 4] {
    let mut sum = [0u64; 4];
    for &id in ids {
        for (total, count) in sum.iter_mut().zip(host(world, id).received) {
            *total += count;
        }
    }
    sum
}

/// An idle stable group of `n` members and `o` observers delivers, per
/// tick, exactly one heartbeat per non-leader (all to the leader) and one
/// view announce per non-leader (all from the leader); each observer gets
/// an announce on the refresh ticks of the view only; and nothing else
/// flows — no stream that never sent advertises a tip.
fn message_budget_scenario(config: &EndpointConfig) {
    for (seed, n, o) in [(51, 5, 0), (52, 17, 3), (53, 41, 6)] {
        let (mut world, ids) = build_observed(n, o, config, seed);
        let (members, observers) = ids.split_at(n);
        // Sample between ticks, so every tick's fan-out has landed. The
        // view dates from the start, so tick `k` falls `k` ticks after it.
        let (first, ticks) = (41, 10);
        world.run_until(SimTime::ZERO + tick() * (first - 1) + SimDuration::from_millis(100));
        let before = [received_by(&world, members), received_by(&world, observers)];
        world.run_for(tick() * ticks);
        let after = [received_by(&world, members), received_by(&world, observers)];
        let (n, o) = (n as u64, o as u64);
        let refreshes = (first..first + ticks)
            .filter(|k| is_refresh_tick(*k))
            .count() as u64;
        assert_eq!(refreshes, 2, "ticks 44 and 48");
        assert_eq!(
            after[0][0] - before[0][0],
            ticks * (n - 1),
            "heartbeats, n={n}"
        );
        assert_eq!(
            after[0][1] - before[0][1],
            ticks * (n - 1),
            "announces to members, n={n}"
        );
        assert_eq!(
            after[1][1] - before[1][1],
            refreshes * o,
            "announces to observers, n={n}"
        );
        assert_eq!(after[1][0] - before[1][0], 0, "heartbeats to observers");
        for &observer in observers {
            assert!(
                host(&world, observer).views.is_empty(),
                "{observer} was handed a view that never changed, n={n}"
            );
        }
        for (after, before) in after.iter().zip(before) {
            assert_eq!(after[2..], before[2..], "anything else, n={n}");
        }
        let after = after[0];
        assert_eq!(
            host(&world, ids[0]).received[0],
            after[0],
            "every heartbeat goes to the leader"
        );
    }
}

/// The leader and the next-ranked member crash in the same tick. Rank 2
/// owes rank 1 a full timeout of its own once it has given up on rank 0,
/// so `k` simultaneous senior failures cost `k` timeouts (all-to-all
/// heartbeats resolved this in one).
fn senior_cascade_scenario(config: &EndpointConfig) {
    for (seed, n) in [(54, 5), (55, 17)] {
        crash_excluded_within(n, &[0, 1], failure_timeout() * 2 + tick() * 4, config, seed);
    }
}

/// A member cut off from everyone, whatever its rank, installs no view —
/// silence proves nothing, and nobody follows it — and re-merges once the
/// network heals.
fn isolated_member_scenario(config: &EndpointConfig) {
    for (seed, rank) in [(56, 0), (57, 1), (58, 2), (59, 4)] {
        let (mut world, ids) = build_with(5, config, seed);
        let heal = SimTime::from_secs(12);
        world.schedule_isolation(ids[rank], SimTime::from_secs(2));
        world.schedule_reconnection(ids[rank], heal);
        world.run_until(heal - SimDuration::from_millis(1));
        let isolated = host(&world, ids[rank]);
        assert!(
            isolated.views.is_empty(),
            "rank {rank} forged {:?}",
            isolated.views
        );
        assert_eq!(isolated.ep.stats().views_installed, 0);
        for &id in &ids {
            if id != ids[rank] {
                let v = host(&world, id).ep.view(GROUP).unwrap();
                assert_eq!(v.len(), 4, "{id}: the majority excludes rank {rank} alone");
                assert!(!v.contains(ids[rank]));
            }
        }
        world.run_until(heal + SimDuration::from_secs(8));
        assert_one_full_view(&world, &ids);
    }
}

/// Cuts the link between the leader and rank 1 for 7 s. Rank 1 gives up on
/// the leader and offers to lead, but everyone else still follows the
/// leader, so it never collects a majority: at no instant do two members
/// lead installed views with the same id (with all-to-all heartbeats both
/// installed their own `v1` — two sequencers). After the heal there is one
/// view with everyone.
fn leader_successor_cut_scenario(config: &EndpointConfig) {
    let (mut world, ids) = build_with(5, config, 60);
    let (cut, heal) = (SimTime::from_secs(2), SimTime::from_secs(9));
    world.schedule_partition(ids[0], ids[1], cut);
    world.schedule_heal(ids[0], ids[1], heal);
    let end = heal + SimDuration::from_secs(6);
    while world.now() < end {
        world.run_for(SimDuration::from_millis(50));
        let mut led: Vec<ViewId> = ids
            .iter()
            .map(|&id| &host(&world, id).ep)
            .filter(|ep| ep.is_leader(GROUP))
            .map(|ep| ep.view(GROUP).unwrap().id)
            .collect();
        let leaders = led.len();
        led.dedup();
        assert_eq!(
            led.len(),
            leaders,
            "two leaders of one view id at {}",
            world.now()
        );
    }
    assert_eq!(
        host(&world, ids[1]).ep.stats().views_installed,
        host(&world, ids[1]).views.len() as u64
    );
    assert!(excluded_at(&world, ids[0], ids[1]).is_some_and(|t| t < heal));
    assert_one_full_view(&world, &ids);
    assert!(host(&world, ids[0]).ep.is_leader(GROUP));
}

/// Every liveness scenario of this file under `config`.
fn liveness_suite(config: &EndpointConfig) {
    leader_crash_scenario(config);
    junior_crash_scenario(config);
    leader_junior_cut_scenario(config);
    lowest_member_restart_scenario(config);
    message_budget_scenario(config);
    senior_cascade_scenario(config);
    isolated_member_scenario(config);
    leader_successor_cut_scenario(config);
}

#[test]
fn idle_group_delivers_exactly_one_heartbeat_and_one_announce_per_member_and_tick() {
    message_budget_scenario(&EndpointConfig::default());
}

#[test]
fn simultaneous_senior_crashes_cost_one_timeout_each() {
    senior_cascade_scenario(&EndpointConfig::default());
}

#[test]
fn isolated_member_of_any_rank_installs_nothing_and_remerges() {
    isolated_member_scenario(&EndpointConfig::default());
}

#[test]
fn successor_cut_off_from_leader_alone_cannot_form_a_second_view() {
    leader_successor_cut_scenario(&EndpointConfig::default());
}

#[test]
fn liveness_suite_holds_under_phi_accrual() {
    liveness_suite(&EndpointConfig {
        detector: FailureDetector::PhiAccrual,
        ..EndpointConfig::default()
    });
}

#[test]
fn liveness_suite_holds_with_flap_damping() {
    liveness_suite(&EndpointConfig {
        damping: true,
        ..EndpointConfig::default()
    });
}

// ---------------------------------------------------------------------------
// Soft state: how often a stream tip and an unchanged view are re-sent, and
// what a gap costs in nacks and retransmissions.
// ---------------------------------------------------------------------------

/// Payloads `receiver` got from `sender`, in delivery order.
fn payloads_from(world: &World<Msg>, receiver: ActorId, sender: ActorId) -> Vec<u64> {
    host(world, receiver)
        .delivered
        .iter()
        .filter(|(s, _)| *s == sender)
        .map(|&(_, p)| p)
        .collect()
}

/// When `receiver` was handed `payload`.
fn delivered_at(world: &World<Msg>, receiver: ActorId, payload: u64) -> Option<SimTime> {
    let h = host(world, receiver);
    h.delivered
        .iter()
        .zip(&h.delivered_at)
        .find(|((_, p), _)| *p == payload)
        .map(|(_, t)| *t)
}

/// Pins both directions of the link `a`–`b` to exactly 500 µs.
fn fix_link_delay(world: &mut World<Msg>, a: ActorId, b: ActorId) {
    let half_ms = DelayModel::Constant(SimDuration::from_micros(500));
    world.net_mut().set_link_delay(a, b, half_ms.clone());
    world.net_mut().set_link_delay(b, a, half_ms);
}

/// A burst of 64 payloads leaves member 0 in one instant and reaches three
/// receivers in random order (uniform 200–800 µs links), nothing lost. A
/// receiver asks for each missing message once, when a later arrival first
/// reveals the gap, so reordering costs at most one retransmission per
/// message and receiver. (When every out-of-order arrival nacked the whole
/// missing prefix again, this burst cost 174 nacks and 5 576
/// retransmissions.)
#[test]
fn reorder_only_burst_retransmissions() {
    let (burst, receivers) = (64u64, 3u64);
    let (mut world, ids) = build(receivers as usize + 1, burst, 71);
    world.actor_mut::<Host>(ids[0]).unwrap().burst = true;
    world.run_for(SimDuration::from_secs(2));
    let mut nacks = 0;
    for &id in &ids[1..] {
        assert_eq!(
            payloads_from(&world, id, ids[0]),
            (0..burst).collect::<Vec<_>>(),
            "receiver {id}"
        );
        nacks += host(&world, id).ep.stats().nacks_sent;
    }
    let sender = host(&world, ids[0]).ep.stats();
    assert_eq!(sender.multicasts_sent, burst);
    assert!(nacks > 0, "the burst arrived in order");
    assert!(
        sender.retransmissions <= burst * receivers,
        "{} retransmissions of {burst} messages to {receivers} receivers",
        sender.retransmissions
    );
}

/// Has `sender` multicast five payloads at 10–50 ms and then stay idle,
/// and runs `world` through ticks 1..=20, sampling just after each:
/// (stream-tip adverts delivered to `ids`, of which to the leader `ids[0]`,
/// the ticks on which any landed).
fn idle_stream_adverts(
    world: &mut World<Msg>,
    ids: &[ActorId],
    sender: ActorId,
) -> (u64, u64, Vec<u64>) {
    world.actor_mut::<Host>(sender).unwrap().to_send = (0..5).collect();
    let (mut on_ticks, mut seen) = (Vec::new(), 0);
    for k in 1..=20 {
        world.run_until(SimTime::ZERO + tick() * k + SimDuration::from_millis(1));
        let adverts = received_by(world, ids)[2];
        if adverts > seen {
            on_ticks.push(k);
            seen = adverts;
        }
    }
    (seen, host(world, ids[0]).received[2], on_ticks)
}

/// A sender other than the leader advertises its stream's tip to the
/// leader alone, 1, 2 and 4 ticks after its last multicast and then once
/// per `failure_timeout`.
#[test]
fn idle_stream_tip_adverts_back_off() {
    let (mut world, ids) = build_with(3, &EndpointConfig::default(), 77);
    let (adverts, to_leader, on_ticks) = idle_stream_adverts(&mut world, &ids, ids[1]);
    assert_eq!(on_ticks, [1, 2, 4, 8, 12, 16, 20]);
    assert!((1..=20).all(|k| on_ticks.contains(&k) == is_refresh_tick(k)));
    assert_eq!((adverts, to_leader), (7, 7), "to the leader alone");
    assert_eq!(host(&world, ids[1]).ep.stats().retransmissions, 0);
}

/// The last message of a stream and the first stream-tip advert after it
/// are lost on one link: the second advert, two ticks after the last
/// multicast, reveals the gap, and one nack round trip later it is filled.
#[test]
fn tail_loss_with_one_advert_lost_recovers_two_ticks_after_the_last_multicast() {
    let (mut world, ids) = build(3, 30, 72);
    // Payloads leave at 10, 20, …, 300 ms; ticks fall on multiples of 250 ms.
    world.schedule_partition(ids[0], ids[2], SimTime::from_millis(295));
    world.schedule_heal(ids[0], ids[2], SimTime::from_millis(510));
    world.run_for(SimDuration::from_secs(3));
    assert_eq!(payloads_from(&world, ids[1], ids[0]).len(), 30);
    assert_eq!(
        payloads_from(&world, ids[2], ids[0]),
        (0..30).collect::<Vec<_>>()
    );
    let recovered = delivered_at(&world, ids[2], 29).unwrap();
    let second_tick = SimTime::from_millis(750);
    assert!(
        recovered > second_tick && recovered <= second_tick + SimDuration::from_millis(3),
        "tail recovered at {recovered}"
    );
}

/// A retransmission that is itself lost is asked for again by the next
/// stream-tip advert.
#[test]
fn lost_retransmission_is_requested_again_by_the_next_advert() {
    let (mut world, ids) = build(3, 30, 74);
    fix_link_delay(&mut world, ids[0], ids[2]);
    // The last payload (300 ms) is lost. The advert of the 500 ms tick
    // arrives at 500.5 ms, the nack at 501 ms — and the retransmission it
    // triggers leaves into a cut link.
    world.schedule_partition(ids[0], ids[2], SimTime::from_millis(295));
    world.schedule_heal(ids[0], ids[2], SimTime::from_millis(310));
    world.schedule_partition(ids[0], ids[2], SimTime::from_micros(500_750));
    world.schedule_heal(ids[0], ids[2], SimTime::from_micros(501_500));
    world.run_for(SimDuration::from_secs(3));
    assert_eq!(host(&world, ids[0]).ep.stats().retransmissions, 2);
    // Advert at 750 ms, nack back, retransmission: three half-millisecond hops.
    assert_eq!(
        delivered_at(&world, ids[2], 29),
        Some(SimTime::from_micros(751_500))
    );
}

/// Each advert is one delivery, to the leader, on the refresh ticks 1, 2,
/// 4, 8, 12, … after the last multicast, whether the sender is a junior
/// member or an observer (of a 5-member group with one observer); the
/// leader sends none, its tip riding every announce. (Before the relay,
/// each advert reached every other member of the sender's view: `n − 1`
/// deliveries from a member, leader or not, `n` from an observer.)
#[test]
fn stream_tip_advert_deliveries_by_sender_role() {
    let refreshes = vec![1, 2, 4, 8, 12, 16, 20];
    for (role, sender, seed, expected) in [
        ("leader", 0, 78, (0, 0, vec![])),
        ("junior", 2, 79, (7, 7, refreshes.clone())),
        ("observer", 5, 80, (7, 7, refreshes)),
    ] {
        let (mut world, ids) = build_observed(5, 1, &EndpointConfig::default(), seed);
        let adverts = idle_stream_adverts(&mut world, &ids, ids[sender]);
        assert_eq!(adverts, expected, "{role}'s stream");
    }
}

/// Five members and one observer, the observer (id 5) multicasting 30
/// payloads at 10, 20, …, 300 ms; every link the recovery of its last
/// payload can take pinned to 500 µs. The listed `(a, b)` links are cut
/// from 295 to 310 ms, so exactly the last payload is lost on them.
fn observer_stream_with_cuts(cut: &[(usize, usize)], seed: u64) -> (World<Msg>, Vec<ActorId>) {
    let (mut world, ids) = build_observed(5, 1, &EndpointConfig::default(), seed);
    world.actor_mut::<Host>(ids[5]).unwrap().to_send = (0..30).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            fix_link_delay(&mut world, a, b);
        }
    }
    for &(a, b) in cut {
        world.schedule_partition(ids[a], ids[b], SimTime::from_millis(295));
        world.schedule_heal(ids[a], ids[b], SimTime::from_millis(310));
    }
    world.run_for(SimDuration::from_secs(3));
    for &id in &ids[..5] {
        assert_eq!(
            payloads_from(&world, id, ids[5]),
            (0..30).collect::<Vec<_>>(),
            "member {id}"
        );
    }
    (world, ids)
}

/// An open-group sender's last payload is lost at one member: the leader's
/// first announce after it (500 ms) relays the tip, and one nack round trip
/// later the payload is there — as soon as when the sender's own advert
/// reached every member.
#[test]
fn tail_loss_of_an_observer_stream_at_one_member() {
    let (world, ids) = observer_stream_with_cuts(&[(5, 3)], 81);
    assert_eq!(
        delivered_at(&world, ids[3], 29),
        Some(SimTime::from_micros(501_500))
    );
}

/// The leader and one junior both lose the observer's last payload. The
/// sender's advert of the 500 ms tick reaches the leader, which nacks it;
/// the leader's announce of the next refresh tick (750 ms) relays the tip
/// to the junior: two refreshes, where the sender's own advert to every
/// member took one.
#[test]
fn tail_loss_of_an_observer_stream_at_the_leader_and_one_member() {
    let (world, ids) = observer_stream_with_cuts(&[(5, 0), (5, 3)], 82);
    assert_eq!(
        delivered_at(&world, ids[0], 29),
        Some(SimTime::from_micros(501_500))
    );
    assert_eq!(
        delivered_at(&world, ids[3], 29),
        Some(SimTime::from_micros(751_500))
    );
}

/// The leader crashes right after a junior's last multicast, which its
/// successor lost. The sender's adverts go to the crashed leader until the
/// successor's view is installed; the message still reaches every live
/// member within `failure_timeout + 3·tick` of the crash.
#[test]
fn tail_loss_at_the_successor_of_a_crashed_leader() {
    let (mut world, ids) = build_with(5, &EndpointConfig::default(), 83);
    let sender = ids[3];
    world.actor_mut::<Host>(sender).unwrap().to_send = (0..30).collect();
    // Payloads leave at 10, 20, …, 300 ms.
    world.schedule_partition(sender, ids[1], SimTime::from_millis(295));
    world.schedule_heal(sender, ids[1], SimTime::from_millis(310));
    let crash = SimTime::from_millis(305);
    world.schedule_crash(ids[0], crash);
    world.run_for(SimDuration::from_secs(5));
    assert!(host(&world, ids[1]).ep.is_leader(GROUP));
    for &id in [ids[1], ids[2], ids[4]].iter() {
        assert_eq!(
            payloads_from(&world, id, sender),
            (0..30).collect::<Vec<_>>(),
            "member {id}"
        );
    }
    let recovered = delivered_at(&world, ids[1], 29).unwrap();
    assert!(
        recovered <= crash + failure_timeout() + tick() * 3,
        "successor recovered the tail at {recovered}"
    );
}

/// An observer cut off from the leader while a view is installed learns
/// that view within `failure_timeout` of the link healing.
#[test]
fn observer_that_missed_an_install_converges_within_the_failure_timeout() {
    let (mut world, ids) = build_observed(5, 2, &EndpointConfig::default(), 75);
    let (leader, observer) = (ids[0], ids[5]);
    // The junior's last heartbeat is the 2 s one; the leader's 3.25 s tick
    // is the first to find it silent for more than a second.
    world.schedule_crash(ids[3], SimTime::from_millis(2_100));
    let heal = SimTime::from_secs(5);
    world.schedule_partition(leader, observer, SimTime::from_millis(3_200));
    world.schedule_heal(leader, observer, heal);
    world.run_until(SimTime::from_secs(8));
    let installed = excluded_at(&world, leader, ids[3]).unwrap();
    assert_eq!(installed, SimTime::from_millis(3_250));
    let prompt = excluded_at(&world, ids[6], ids[3]).unwrap();
    assert!(prompt <= installed + SimDuration::from_millis(1));
    let late = excluded_at(&world, observer, ids[3]).expect("observer never learned the view");
    assert!(
        late > heal && late <= heal + failure_timeout() + SimDuration::from_millis(1),
        "observer learned the view at {late}"
    );
}

/// Through a crash, a restart and the views they cause, an observer's host
/// hears of each view exactly once, in order, however many copies of it
/// arrive.
#[test]
fn observer_is_told_of_each_view_exactly_once() {
    let (n, o) = (5, 2);
    let (mut world, ids) = build_observed(n, o, &EndpointConfig::default(), 76);
    world.schedule_crash(ids[3], SimTime::from_millis(2_100));
    world.schedule_restart(ids[3], SimTime::from_secs(6));
    world.run_until(SimTime::from_secs(15));
    let installed: Vec<ViewId> = host(&world, ids[0]).views.iter().map(|v| v.id).collect();
    assert_eq!(installed, [ViewId(1), ViewId(2)], "one exclusion, one join");
    for &observer in &ids[n..] {
        let h = host(&world, observer);
        let told: Vec<ViewId> = h.views.iter().map(|v| v.id).collect();
        assert_eq!(told, installed, "{observer}");
        assert!(
            h.received[1] > told.len() as u64,
            "{observer} got refreshes too"
        );
    }
}
