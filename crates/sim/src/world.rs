//! The simulation world: event queue, scheduler, and fault injection.

use crate::actor::{Actor, ActorId, Command, Context, Timer};
use crate::net::NetworkModel;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::timer::TimerSlab;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::any::Any;

/// Sender id attached to messages injected from outside the simulation via
/// [`World::send_external`].
pub const EXTERNAL: ActorId = ActorId(u32::MAX);

/// Aggregate counters maintained by the world.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Events processed (deliveries, timers, faults).
    pub events: u64,
    /// Messages delivered to live actors.
    pub delivered: u64,
    /// Messages dropped by loss, partitions, or dead recipients.
    pub dropped: u64,
    /// Duplicate copies injected by at-least-once links.
    pub duplicated: u64,
    /// Timers fired.
    pub timers: u64,
}

enum EventKind<M> {
    Deliver { from: ActorId, to: ActorId, msg: M },
    Fire { actor: ActorId, timer: Timer },
    Crash(ActorId),
    Restart(ActorId),
    Partition { a: ActorId, b: ActorId },
    Heal { a: ActorId, b: ActorId },
    Degrade { target: ActorId, factor: f64 },
    Lossy { target: ActorId, p: f64 },
    RestoreGray(ActorId),
}

/// A queued event's key: its instant in the high 64 bits, its scheduling
/// sequence number in the low 64. Events pop by time and, at one instant,
/// in the order they were scheduled.
fn event_key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_micros()) << 64) | u128::from(seq)
}

/// The instant an [`event_key`] carries.
fn key_time(key: u128) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

struct Slot<M> {
    actor: Box<dyn HostedActor<M>>,
    alive: bool,
    rng: SmallRng,
}

/// Object-safe host trait combining [`Actor`] with [`Any`] so worlds can hand
/// back typed references to their actors after a run.
pub trait HostedActor<M>: Actor<M> + Any {}
impl<M, T: Actor<M> + Any> HostedActor<M> for T {}

/// A deterministic discrete-event simulation of message-passing actors.
///
/// See the [crate docs](crate) for an overview and example. Every
/// `schedule_*` method and [`World::send_external`] panics if its instant is
/// before [`World::now`].
pub struct World<M> {
    slots: Vec<Slot<M>>,
    queue: EventQueue<EventKind<M>>,
    now: SimTime,
    seq: u64,
    net: NetworkModel,
    net_rng: SmallRng,
    timers: TimerSlab,
    /// Reusable command buffer handed to actor handlers: taken before each
    /// handler invocation and put back drained, so steady-state event
    /// processing does not allocate a fresh `Vec` per event.
    scratch: Vec<Command<M>>,
    /// Target lists of applied `SendMany` commands, cleared, for
    /// [`Context::multicast`] to fill again instead of allocating one per
    /// multicast.
    target_pool: Vec<Vec<ActorId>>,
    started: bool,
    seed: u64,
    stats: WorldStats,
}

impl<M: Clone + 'static> World<M> {
    /// Creates an empty world seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        let mut seed_rng = SmallRng::seed_from_u64(seed);
        let net_rng = SmallRng::seed_from_u64(seed_rng.gen());
        Self {
            slots: Vec::new(),
            queue: EventQueue::default(),
            now: SimTime::ZERO,
            seq: 0,
            net: NetworkModel::default(),
            net_rng,
            timers: TimerSlab::default(),
            scratch: Vec::new(),
            target_pool: Vec::new(),
            started: false,
            seed,
            stats: WorldStats::default(),
        }
    }

    /// Adds an actor and returns its id. Actors added before the first run
    /// are started (in construction order) when the run begins; actors added
    /// later are started immediately at the current virtual time.
    pub fn add_actor(&mut self, actor: Box<dyn HostedActor<M>>) -> ActorId {
        let id = ActorId(self.slots.len() as u32);
        // Derive a per-actor stream from the world seed and the actor index
        // so that actor RNGs are independent of scheduling order.
        let rng = SmallRng::seed_from_u64(
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1)),
        );
        self.slots.push(Slot {
            actor,
            alive: true,
            rng,
        });
        if self.started {
            self.start_actor(id);
        }
        id
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether `id` is currently alive (not crashed).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this world.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.slots[id.index()].alive
    }

    /// Aggregate event counters.
    pub fn stats(&self) -> WorldStats {
        self.stats
    }

    /// Number of currently armed timers (armed, not yet fired or cancelled).
    pub fn live_timers(&self) -> usize {
        self.timers.live()
    }

    /// High-water mark of concurrently armed timers: the number of timer
    /// slots ever allocated. Bounded by peak concurrency, not by how many
    /// timers are armed and cancelled over the run — useful for asserting
    /// that cancellation churn does not leak memory.
    pub fn timer_slot_capacity(&self) -> usize {
        self.timers.slot_capacity()
    }

    /// Mutable access to the network model (for configuring delays, loss,
    /// and partitions).
    pub fn net_mut(&mut self) -> &mut NetworkModel {
        &mut self.net
    }

    /// Read access to the network model.
    pub fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Returns a typed shared reference to an actor, or `None` if the actor
    /// is of a different concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this world.
    pub fn actor<T: Actor<M> + Any>(&self, id: ActorId) -> Option<&T> {
        let actor: &dyn Any = &*self.slots[id.index()].actor;
        actor.downcast_ref::<T>()
    }

    /// Returns a typed exclusive reference to an actor, or `None` if the
    /// actor is of a different concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this world.
    pub fn actor_mut<T: Actor<M> + Any>(&mut self, id: ActorId) -> Option<&mut T> {
        let actor: &mut dyn Any = &mut *self.slots[id.index()].actor;
        actor.downcast_mut::<T>()
    }

    /// Schedules a crash of `actor` at virtual time `at`. A crashed actor
    /// silently drops all messages and timers until restarted.
    pub fn schedule_crash(&mut self, actor: ActorId, at: SimTime) {
        self.push(at, EventKind::Crash(actor));
    }

    /// Schedules a restart of `actor` at virtual time `at`; its
    /// [`Actor::on_restart`] handler runs at that time.
    pub fn schedule_restart(&mut self, actor: ActorId, at: SimTime) {
        self.push(at, EventKind::Restart(actor));
    }

    /// Schedules a network partition between `a` and `b` (both directions)
    /// at virtual time `at`. Messages already in flight still arrive;
    /// messages sent while partitioned are dropped.
    pub fn schedule_partition(&mut self, a: ActorId, b: ActorId, at: SimTime) {
        self.push(at, EventKind::Partition { a, b });
    }

    /// Schedules the healing of a partition between `a` and `b` at `at`.
    pub fn schedule_heal(&mut self, a: ActorId, b: ActorId, at: SimTime) {
        self.push(at, EventKind::Heal { a, b });
    }

    /// Schedules the isolation of `actor` from every other current actor
    /// (a full partition) at `at`.
    pub fn schedule_isolation(&mut self, actor: ActorId, at: SimTime) {
        for i in 0..self.slots.len() {
            let other = ActorId(i as u32);
            if other != actor {
                self.schedule_partition(actor, other, at);
            }
        }
    }

    /// Schedules a gray degradation of `actor` at virtual time `at`: from
    /// then on, every message to or from it takes `factor`x the modelled
    /// delay. The actor stays alive — the failure detector sees heartbeats,
    /// only slower — which is exactly what makes gray failures hard.
    pub fn schedule_degrade(&mut self, target: ActorId, factor: f64, at: SimTime) {
        self.push(at, EventKind::Degrade { target, factor });
    }

    /// Schedules `actor` to start losing messages (to and from it) with
    /// iid probability `p` at virtual time `at`.
    pub fn schedule_lossy(&mut self, target: ActorId, p: f64, at: SimTime) {
        self.push(at, EventKind::Lossy { target, p });
    }

    /// Schedules the end of `actor`'s gray failures (degradation and
    /// per-actor loss) at virtual time `at`.
    pub fn schedule_restore(&mut self, target: ActorId, at: SimTime) {
        self.push(at, EventKind::RestoreGray(target));
    }

    /// Schedules the reconnection of `actor` to every other current actor
    /// at `at`.
    pub fn schedule_reconnection(&mut self, actor: ActorId, at: SimTime) {
        for i in 0..self.slots.len() {
            let other = ActorId(i as u32);
            if other != actor {
                self.schedule_heal(actor, other, at);
            }
        }
    }

    /// Injects a message from outside the simulation, delivered to `to`
    /// exactly at time `at` (no network model applied). The receiving actor
    /// sees [`EXTERNAL`] as the sender.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn send_external(&mut self, to: ActorId, msg: M, at: SimTime) {
        self.push(
            at,
            EventKind::Deliver {
                from: EXTERNAL,
                to,
                msg,
            },
        );
    }

    /// Runs the simulation until the event queue is empty or `limit` events
    /// have been processed. Returns the number of events processed.
    pub fn run_until_idle(&mut self, limit: u64) -> u64 {
        self.ensure_started();
        let mut n = 0;
        while n < limit && self.step_until(u64::MAX) {
            n += 1;
        }
        n
    }

    /// Runs the simulation up to and including events at time `until`, then
    /// advances the clock to `until`. Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        self.ensure_started();
        let mut n = 0;
        while self.step_until(until.as_micros()) {
            n += 1;
        }
        self.now = self.now.max(until);
        n
    }

    /// Runs the simulation for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let until = self.now + d;
        self.run_until(until)
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        self.step_until(u64::MAX)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.slots.len() {
            self.start_actor(ActorId(i as u32));
        }
    }

    fn start_actor(&mut self, id: ActorId) {
        self.dispatch(id, |actor, ctx| actor.on_start(ctx));
    }

    /// Runs one actor handler against the reusable command buffer, then
    /// applies the commands it recorded. `apply_commands` never re-enters
    /// actor code, so taking the buffer for the duration is safe.
    fn dispatch(
        &mut self,
        id: ActorId,
        f: impl FnOnce(&mut dyn HostedActor<M>, &mut Context<'_, M>),
    ) {
        let mut commands = std::mem::take(&mut self.scratch);
        {
            let degrade = self.net.degrade_factor(id).unwrap_or(1.0);
            let slot = &mut self.slots[id.index()];
            let mut ctx = Context {
                me: id,
                now: self.now,
                degrade,
                rng: &mut slot.rng,
                commands: &mut commands,
                timers: &mut self.timers,
                target_pool: &mut self.target_pool,
            };
            f(&mut *slot.actor, &mut ctx);
        }
        self.apply_commands(id, &mut commands);
        self.scratch = commands;
    }

    /// Processes the next event if it is due at or before `until` (in
    /// microseconds). Returns `false` when there is none.
    fn step_until(&mut self, until: u64) -> bool {
        let Some((key, kind)) = self.queue.pop_until(until) else {
            return false;
        };
        let time = key_time(key);
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.stats.events += 1;
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if !self.slots[to.index()].alive {
                    self.stats.dropped += 1;
                    return true;
                }
                self.stats.delivered += 1;
                self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
            }
            EventKind::Fire { actor, timer } => {
                // Consuming frees the slot and invalidates the id; a stale
                // fire (cancelled after this event was queued) is discarded.
                if !self.timers.consume(timer.id) {
                    return true;
                }
                if !self.slots[actor.index()].alive {
                    return true;
                }
                self.stats.timers += 1;
                self.dispatch(actor, |a, ctx| a.on_timer(timer, ctx));
            }
            EventKind::Crash(actor) => {
                self.slots[actor.index()].alive = false;
            }
            EventKind::Partition { a, b } => {
                self.net.partition(a, b);
            }
            EventKind::Heal { a, b } => {
                self.net.heal(a, b);
            }
            EventKind::Degrade { target, factor } => {
                self.net.degrade(target, factor);
            }
            EventKind::Lossy { target, p } => {
                self.net.set_actor_loss(target, p);
            }
            EventKind::RestoreGray(target) => {
                self.net.restore(target);
            }
            EventKind::Restart(actor) => {
                if !self.slots[actor.index()].alive {
                    self.slots[actor.index()].alive = true;
                    self.dispatch(actor, |a, ctx| a.on_restart(ctx));
                }
            }
        }
        true
    }

    fn apply_commands(&mut self, me: ActorId, commands: &mut Vec<Command<M>>) {
        for cmd in commands.drain(..) {
            match cmd {
                Command::Send { to, msg } => self.route(me, to, || msg),
                Command::SendMany { mut targets, msg } => {
                    // One shared payload for the whole fan-out: each target
                    // resolves its own routing fate (identical RNG draws and
                    // event order to an equivalent run of `Send` commands),
                    // and the payload is cloned only per delivered copy.
                    for &to in &targets {
                        self.route(me, to, || msg.clone());
                    }
                    targets.clear();
                    self.target_pool.push(targets);
                }
                Command::Local { msg, delay } => {
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Deliver {
                            from: me,
                            to: me,
                            msg,
                        },
                    );
                }
                Command::SetTimer { id, kind, delay } => {
                    let at = self.now + delay;
                    self.push(
                        at,
                        EventKind::Fire {
                            actor: me,
                            timer: Timer { id, kind },
                        },
                    );
                }
                Command::CancelTimer(id) => {
                    // Bumps the slot generation so the queued fire event is
                    // stale when it pops; cancelling a fired or already
                    // cancelled timer is a no-op.
                    self.timers.consume(id);
                }
            }
        }
    }

    /// Sends one message from `me` to `to`: draws its fate from the network
    /// model and queues the delivery, and its duplicate if any. `msg` is
    /// called only for a delivered message, and the duplicate clones it.
    fn route(&mut self, me: ActorId, to: ActorId, msg: impl FnOnce() -> M) {
        assert!(to.index() < self.slots.len(), "send to unknown actor {to}");
        let fate = self.net.deliveries(me, to, &mut self.net_rng);
        let Some(delay) = fate.first else {
            self.stats.dropped += 1;
            return;
        };
        let msg = msg();
        if let Some(dup_delay) = fate.duplicate {
            self.stats.duplicated += 1;
            let copy = msg.clone();
            self.push(
                self.now + dup_delay,
                EventKind::Deliver {
                    from: me,
                    to,
                    msg: copy,
                },
            );
        }
        self.push(self.now + delay, EventKind::Deliver { from: me, to, msg });
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        // The calendar queue files an event by its instant's slot, so one in
        // the past would pop out of order, not early.
        assert!(time >= self.now, "cannot schedule an event in the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(event_key(time, seq), kind);
    }
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("actors", &self.slots.len())
            .field("pending_events", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Tickle,
    }

    #[derive(Default)]
    struct Echo {
        pings: u32,
        pongs: u32,
        timers_fired: u32,
        local: u32,
    }

    impl Actor<Msg> for Echo {
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    if from != EXTERNAL && from != ctx.me() {
                        ctx.send(from, Msg::Pong);
                    }
                }
                Msg::Pong => self.pongs += 1,
                Msg::Tickle => self.local += 1,
            }
        }
        fn on_timer(&mut self, _: Timer, _: &mut Context<'_, Msg>) {
            self.timers_fired += 1;
        }
    }

    struct Starter {
        peer: ActorId,
        replies: u32,
    }

    impl Actor<Msg> for Starter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.peer, Msg::Ping);
        }
        fn on_message(&mut self, _: ActorId, msg: Msg, _: &mut Context<'_, Msg>) {
            if msg == Msg::Pong {
                self.replies += 1;
            }
        }
        fn on_timer(&mut self, _: Timer, _: &mut Context<'_, Msg>) {}
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut world: World<Msg> = World::new(1);
        let echo = world.add_actor(Box::new(Echo::default()));
        let starter = world.add_actor(Box::new(Starter {
            peer: echo,
            replies: 0,
        }));
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 1);
        assert_eq!(world.actor::<Starter>(starter).unwrap().replies, 1);
        assert_eq!(world.stats().delivered, 2);
    }

    #[test]
    fn typed_accessor_rejects_wrong_type() {
        let mut world: World<Msg> = World::new(1);
        let echo = world.add_actor(Box::new(Echo::default()));
        assert!(world.actor::<Starter>(echo).is_none());
        assert!(world.actor_mut::<Echo>(echo).is_some());
    }

    #[test]
    fn external_injection_and_clock() {
        let mut world: World<Msg> = World::new(9);
        let echo = world.add_actor(Box::new(Echo::default()));
        world.send_external(echo, Msg::Ping, SimTime::from_millis(10));
        world.send_external(echo, Msg::Ping, SimTime::from_millis(20));
        world.run_until(SimTime::from_millis(15));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 1);
        assert_eq!(world.now(), SimTime::from_millis(15));
        world.run_until(SimTime::from_millis(30));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 2);
        assert_eq!(world.now(), SimTime::from_millis(30));
    }

    #[test]
    fn crash_drops_messages_restart_revives() {
        let mut world: World<Msg> = World::new(3);
        let echo = world.add_actor(Box::new(Echo::default()));
        world.schedule_crash(echo, SimTime::from_millis(5));
        world.schedule_restart(echo, SimTime::from_millis(15));
        world.send_external(echo, Msg::Ping, SimTime::from_millis(10)); // dropped
        world.send_external(echo, Msg::Ping, SimTime::from_millis(20)); // delivered
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 1);
        assert!(world.is_alive(echo));
        assert_eq!(world.stats().dropped, 1);
    }

    struct TimerUser {
        fired: Vec<u32>,
        cancel_second: bool,
    }

    impl Actor<Msg> for TimerUser {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.set_timer(1, SimDuration::from_millis(10));
            let second = ctx.set_timer(2, SimDuration::from_millis(20));
            if self.cancel_second {
                ctx.cancel_timer(second);
            }
        }
        fn on_message(&mut self, _: ActorId, _: Msg, _: &mut Context<'_, Msg>) {}
        fn on_timer(&mut self, t: Timer, _: &mut Context<'_, Msg>) {
            self.fired.push(t.kind);
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut world: World<Msg> = World::new(4);
        let a = world.add_actor(Box::new(TimerUser {
            fired: vec![],
            cancel_second: false,
        }));
        world.run_for(SimDuration::from_millis(50));
        assert_eq!(world.actor::<TimerUser>(a).unwrap().fired, vec![1, 2]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut world: World<Msg> = World::new(4);
        let a = world.add_actor(Box::new(TimerUser {
            fired: vec![],
            cancel_second: true,
        }));
        world.run_for(SimDuration::from_millis(50));
        assert_eq!(world.actor::<TimerUser>(a).unwrap().fired, vec![1]);
    }

    #[test]
    fn schedule_local_bypasses_network() {
        struct LocalUser;
        impl Actor<Msg> for LocalUser {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.schedule_local(Msg::Tickle, SimDuration::from_millis(1));
            }
            fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                assert_eq!(from, ctx.me());
                assert_eq!(msg, Msg::Tickle);
            }
            fn on_timer(&mut self, _: Timer, _: &mut Context<'_, Msg>) {}
        }
        let mut world: World<Msg> = World::new(5);
        // Partition everything: local scheduling must still deliver.
        let a = world.add_actor(Box::new(LocalUser));
        world.net_mut().set_loss_probability(1.0);
        world.run_for(SimDuration::from_millis(10));
        assert_eq!(world.stats().delivered, 1);
        let _ = a;
    }

    #[test]
    fn determinism_same_seed_same_history() {
        fn run(seed: u64) -> (WorldStats, u32) {
            let mut world: World<Msg> = World::new(seed);
            world.net_mut().set_loss_probability(0.2);
            let echo = world.add_actor(Box::new(Echo::default()));
            let _starter = world.add_actor(Box::new(Starter {
                peer: echo,
                replies: 0,
            }));
            for i in 0..100 {
                world.send_external(echo, Msg::Ping, SimTime::from_millis(i * 3));
            }
            world.run_for(SimDuration::from_secs(2));
            (world.stats(), world.actor::<Echo>(echo).unwrap().pings)
        }
        assert_eq!(run(11), run(11));
        // Different seeds give different loss patterns (with overwhelming probability).
        assert_ne!(run(11).1, 0);
    }

    #[test]
    fn scheduled_partition_blocks_and_heals() {
        let mut world: World<Msg> = World::new(21);
        let echo = world.add_actor(Box::new(Echo::default()));
        let starter = world.add_actor(Box::new(Starter {
            peer: echo,
            replies: 0,
        }));
        // Partition before the starter's ping can be re-sent; the initial
        // ping at t~0 is in flight and still lands.
        world.schedule_partition(echo, starter, SimTime::from_millis(5));
        world.send_external(echo, Msg::Ping, SimTime::from_millis(10)); // external: unaffected
        world.run_for(SimDuration::from_millis(20));
        // The echo's pong to the starter (sent at ~0.5ms) arrived before
        // the partition; verify partitioned traffic afterwards drops.
        let before = world.stats().dropped;
        world.send_external(starter, Msg::Pong, SimTime::from_millis(25));
        world.run_for(SimDuration::from_millis(20));
        let _ = before;
        world.schedule_heal(echo, starter, SimTime::from_millis(50));
        world.run_for(SimDuration::from_millis(20));
        assert!(!world.net().is_partitioned(echo, starter));
    }

    #[test]
    fn isolation_cuts_actor_off() {
        let mut world: World<Msg> = World::new(22);
        let echo = world.add_actor(Box::new(Echo::default()));
        let other = world.add_actor(Box::new(Echo::default()));
        world.schedule_isolation(echo, SimTime::from_millis(1));
        world.run_for(SimDuration::from_millis(5));
        assert!(world.net().is_partitioned(echo, other));
        world.schedule_reconnection(echo, SimTime::from_millis(10));
        world.run_for(SimDuration::from_millis(10));
        assert!(!world.net().is_partitioned(echo, other));
    }

    #[test]
    fn run_until_idle_respects_limit() {
        let mut world: World<Msg> = World::new(6);
        let echo = world.add_actor(Box::new(Echo::default()));
        for i in 0..10 {
            world.send_external(echo, Msg::Ping, SimTime::from_millis(i));
        }
        let n = world.run_until_idle(4);
        assert_eq!(n, 4);
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 4);
    }

    #[test]
    fn late_added_actor_is_started() {
        let mut world: World<Msg> = World::new(8);
        let echo = world.add_actor(Box::new(Echo::default()));
        world.run_for(SimDuration::from_millis(1));
        let starter = world.add_actor(Box::new(Starter {
            peer: echo,
            replies: 0,
        }));
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.actor::<Starter>(starter).unwrap().replies, 1);
    }

    #[test]
    #[should_panic(expected = "unknown actor")]
    fn send_to_unknown_actor_panics() {
        struct Bad;
        impl Actor<Msg> for Bad {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.send(ActorId::from_index(99), Msg::Ping);
            }
            fn on_message(&mut self, _: ActorId, _: Msg, _: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, _: Timer, _: &mut Context<'_, Msg>) {}
        }
        let mut world: World<Msg> = World::new(0);
        world.add_actor(Box::new(Bad));
        world.run_for(SimDuration::from_millis(1));
    }

    /// Records every delivered `u32` with the instant it arrived.
    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl Actor<u32> for Recorder {
        fn on_message(&mut self, _: ActorId, msg: u32, ctx: &mut Context<'_, u32>) {
            self.seen.push((ctx.now(), msg));
        }
        fn on_timer(&mut self, _: Timer, _: &mut Context<'_, u32>) {}
    }

    fn seen(world: &World<u32>, id: ActorId) -> Vec<(SimTime, u32)> {
        world.actor::<Recorder>(id).unwrap().seen.clone()
    }

    #[test]
    fn queue_key_orders_by_time_then_sequence() {
        let t = SimTime::from_micros;
        let late = u64::MAX;
        // The time decides before any sequence number, even the largest.
        assert!(event_key(t(1), u64::MAX) < event_key(t(2), 0));
        assert!(event_key(t(late - 1), u64::MAX) < event_key(t(late), 0));
        // At one instant, the sequence number decides, across 2^32.
        let wide = u64::from(u32::MAX);
        assert!(event_key(t(7), wide) < event_key(t(7), wide + 1));
        assert!(event_key(t(late), wide + 1) < event_key(t(late), u64::MAX));
        for time in [0, 1, wide, wide + 1, late - 1, late] {
            assert_eq!(key_time(event_key(t(time), u64::MAX)), t(time));
        }
    }

    #[test]
    fn events_at_one_instant_pop_in_scheduling_order() {
        let mut world: World<u32> = World::new(1);
        let r = world.add_actor(Box::new(Recorder::default()));
        let at = SimTime::from_millis(5);
        // Scheduled out of time order; at `at`, in the order 0..4.
        world.send_external(r, 10, SimTime::from_millis(9));
        for n in 0..4 {
            world.send_external(r, n, at);
        }
        world.send_external(r, 11, SimTime::from_millis(1));
        world.run_until_idle(u64::MAX);
        let order: Vec<u32> = seen(&world, r).iter().map(|&(_, n)| n).collect();
        assert_eq!(order, vec![11, 0, 1, 2, 3, 10]);
    }

    #[test]
    fn queue_orders_at_the_extremes_of_time_and_sequence() {
        let mut world: World<u32> = World::new(1);
        let r = world.add_actor(Box::new(Recorder::default()));
        // Sequence numbers straddling 2^32 at the last instants there are.
        world.seq = u64::from(u32::MAX) - 1;
        let (last, before) = (
            SimTime::from_micros(u64::MAX),
            SimTime::from_micros(u64::MAX - 1),
        );
        world.send_external(r, 0, last);
        world.send_external(r, 1, before);
        world.send_external(r, 2, last);
        world.send_external(r, 3, before);
        world.send_external(r, 4, SimTime::from_micros(1));
        assert!(world.seq > u64::from(u32::MAX) + 1);
        // `run_until` stops after the events at its bound, before later ones.
        world.run_until(before);
        assert_eq!(
            seen(&world, r),
            vec![(SimTime::from_micros(1), 4), (before, 1), (before, 3)]
        );
        assert_eq!(world.now(), before);
        world.run_until(last);
        assert_eq!(&seen(&world, r)[3..], &[(last, 0), (last, 2)]);
        assert_eq!(world.stats().events, 5);
    }

    #[test]
    fn far_event_fires_before_later_scheduled_ones_at_its_instant() {
        let mut world: World<u32> = World::new(1);
        let r = world.add_actor(Box::new(Recorder::default()));
        let t = SimTime::from_millis(2_500);
        // More than 1.05 s ahead when scheduled.
        world.send_external(r, 0, t);
        world.send_external(r, 9, t + SimDuration::from_micros(1));
        // Under 1.05 s ahead, then under 2 ms, then within the last 2 µs.
        for (n, ahead_us) in [(1, 900_000), (2, 1_500), (3, 2), (4, 0)] {
            world.run_until(SimTime::from_micros(t.as_micros() - ahead_us));
            world.send_external(r, n, t);
        }
        world.run_until_idle(u64::MAX);
        let order: Vec<u32> = seen(&world, r).iter().map(|&(_, n)| n).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 9]);
        assert_eq!(world.now(), t + SimDuration::from_micros(1));
    }

    #[test]
    fn run_until_stops_before_the_first_later_event() {
        let mut world: World<u32> = World::new(1);
        let r = world.add_actor(Box::new(Recorder::default()));
        for (n, ms) in [(0, 10), (1, 20), (2, 20), (3, 21), (4, 30)] {
            world.send_external(r, n, SimTime::from_millis(ms));
        }
        assert_eq!(world.run_until(SimTime::from_millis(20)), 3);
        assert_eq!(world.now(), SimTime::from_millis(20));
        assert_eq!(world.run_until(SimTime::from_micros(20_999)), 0);
        assert_eq!(world.run_until(SimTime::from_millis(21)), 1);
        let order: Vec<u32> = seen(&world, r).iter().map(|&(_, n)| n).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut world: World<u32> = World::new(1);
        let r = world.add_actor(Box::new(Recorder::default()));
        world.run_until(SimTime::from_millis(10));
        world.schedule_crash(r, SimTime::from_millis(9));
    }

    #[test]
    fn dest_delay_override_applies() {
        let mut world: World<Msg> = World::new(2);
        let echo = world.add_actor(Box::new(Echo::default()));
        let starter = world.add_actor(Box::new(Starter {
            peer: echo,
            replies: 0,
        }));
        world
            .net_mut()
            .set_dest_delay(echo, DelayModel::Constant(SimDuration::from_millis(100)));
        // Ping takes 100 ms to arrive; pong takes the default < 1 ms back.
        world.run_until(SimTime::from_millis(99));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 0);
        world.run_until(SimTime::from_millis(102));
        assert_eq!(world.actor::<Echo>(echo).unwrap().pings, 1);
        let _ = starter;
    }
}
