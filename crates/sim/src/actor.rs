//! The actor abstraction: event-driven state machines over virtual time.

use crate::time::{SimDuration, SimTime};
use crate::timer::TimerSlab;
use rand::rngs::SmallRng;
use std::fmt;

/// Identifies an actor within a [`crate::World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub(crate) u32);

impl ActorId {
    /// The raw index of this actor in its world.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `ActorId` from a raw index.
    ///
    /// Intended for tests and tools that need to reference actors by
    /// construction order; sending to an id that was never returned by
    /// [`crate::World::add_actor`] will panic at delivery time.
    pub fn from_index(index: usize) -> Self {
        ActorId(index as u32)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Identifies one armed timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A fired timer, carrying the id returned when it was armed and the
/// actor-chosen `kind` tag used to distinguish timer purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// The id returned by [`Context::set_timer`].
    pub id: TimerId,
    /// The actor-chosen discriminator passed to [`Context::set_timer`].
    pub kind: u32,
}

/// An event-driven state machine hosted by a [`crate::World`].
///
/// Handlers must not block; all waiting is expressed through timers and
/// message exchange. `M` is the application message type shared by all actors
/// in a world.
pub trait Actor<M> {
    /// Invoked once when the simulation starts (and again on restart after a
    /// crash, unless [`Actor::on_restart`] is overridden).
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Invoked for each delivered message.
    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Context<'_, M>);

    /// Invoked when a timer armed by this actor fires.
    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, M>);

    /// Invoked when the actor is restarted after a crash. Defaults to
    /// [`Actor::on_start`]. Volatile protocol state should be reset here;
    /// whatever the implementor retains models stable storage.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        self.on_start(ctx);
    }
}

/// Commands captured from an actor during one handler invocation; the world
/// applies them after the handler returns.
#[derive(Debug)]
pub(crate) enum Command<M> {
    Send {
        to: ActorId,
        msg: M,
    },
    /// Send one logical payload to every target, cloning it only per
    /// delivered copy at routing time. Semantically identical to a
    /// `Send` per target in `targets` order; the world resolves routing
    /// once per target against a single shared payload instead of
    /// carrying one deep-cloned message per command.
    SendMany {
        targets: Vec<ActorId>,
        msg: M,
    },
    /// Deliver `msg` back to the issuing actor after `delay`, bypassing the
    /// network model. Models local asynchronous work (e.g. handing a request
    /// to the hosted application).
    Local {
        msg: M,
        delay: SimDuration,
    },
    SetTimer {
        id: TimerId,
        kind: u32,
        delay: SimDuration,
    },
    CancelTimer(TimerId),
}

/// The interface through which an actor interacts with its world during a
/// handler invocation.
pub struct Context<'a, M> {
    pub(crate) me: ActorId,
    pub(crate) now: SimTime,
    pub(crate) degrade: f64,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) commands: &'a mut Vec<Command<M>>,
    pub(crate) timers: &'a mut TimerSlab,
    /// Cleared target lists the world recycles between multicasts.
    pub(crate) target_pool: &'a mut Vec<Vec<ActorId>>,
}

impl<M> Context<'_, M> {
    /// This actor's id.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// The gray-degradation factor of this actor's machine: `1.0` when
    /// healthy, the configured slowdown while a scheduled degrade fault
    /// is active. Actors modelling local work (service times) should
    /// stretch their delays by this factor — a slow machine is slow end
    /// to end, not just on the wire.
    pub fn degrade_factor(&self) -> f64 {
        self.degrade
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's deterministic RNG stream.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Sends `msg` to `to` through the network model (subject to link delay,
    /// loss, and partitions). Sending to self is allowed and also traverses
    /// the network model.
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.commands.push(Command::Send { to, msg });
    }

    /// Sends `msg` to every actor in `targets`. Each copy samples its own
    /// link delay, as on a switched LAN. Equivalent to one [`Context::send`]
    /// per target, but the payload is shared until routing resolves, so it
    /// is cloned only for copies that are actually delivered.
    pub fn multicast<'t, I>(&mut self, targets: I, msg: M)
    where
        M: Clone,
        I: IntoIterator<Item = &'t ActorId>,
    {
        let mut list = self.target_pool.pop().unwrap_or_default();
        list.extend(targets.into_iter().copied());
        if list.is_empty() {
            self.target_pool.push(list);
            return;
        }
        self.commands.push(Command::SendMany { targets: list, msg });
    }

    /// Delivers `msg` back to this actor after `delay`, bypassing the network
    /// model entirely. Use for modelling local processing or application
    /// service time.
    pub fn schedule_local(&mut self, msg: M, delay: SimDuration) {
        self.commands.push(Command::Local { msg, delay });
    }

    /// Arms a timer that fires after `delay`, tagged with `kind`.
    pub fn set_timer(&mut self, kind: u32, delay: SimDuration) -> TimerId {
        let id = self.timers.arm();
        self.commands.push(Command::SetTimer { id, kind, delay });
        id
    }

    /// Cancels a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.commands.push(Command::CancelTimer(id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn context_records_commands() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut commands: Vec<Command<u32>> = Vec::new();
        let mut timers = TimerSlab::default();
        let mut target_pool = Vec::new();
        let mut ctx = Context {
            me: ActorId(3),
            now: SimTime::from_millis(5),
            degrade: 1.0,
            rng: &mut rng,
            commands: &mut commands,
            timers: &mut timers,
            target_pool: &mut target_pool,
        };
        assert_eq!(ctx.me(), ActorId(3));
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        ctx.send(ActorId(1), 10);
        ctx.multicast(&[ActorId(1), ActorId(2)], 20);
        ctx.multicast(&[], 21); // empty multicast records nothing
        let t = ctx.set_timer(7, SimDuration::from_millis(1));
        ctx.cancel_timer(t);
        ctx.schedule_local(99, SimDuration::from_micros(10));
        assert_eq!(commands.len(), 5);
        assert!(matches!(
            commands[0],
            Command::Send {
                to: ActorId(1),
                msg: 10
            }
        ));
        assert!(matches!(
            &commands[1],
            Command::SendMany { targets, msg: 20 } if *targets == [ActorId(1), ActorId(2)]
        ));
        assert!(matches!(commands[2], Command::SetTimer { kind: 7, .. }));
        assert!(matches!(commands[3], Command::CancelTimer(_)));
        assert!(matches!(commands[4], Command::Local { msg: 99, .. }));
    }

    #[test]
    fn timer_ids_unique() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut commands: Vec<Command<u32>> = Vec::new();
        let mut timers = TimerSlab::default();
        let mut target_pool = Vec::new();
        let mut ctx = Context {
            me: ActorId(0),
            now: SimTime::ZERO,
            degrade: 1.0,
            rng: &mut rng,
            commands: &mut commands,
            timers: &mut timers,
            target_pool: &mut target_pool,
        };
        let a = ctx.set_timer(0, SimDuration::from_millis(1));
        let b = ctx.set_timer(0, SimDuration::from_millis(1));
        assert_ne!(a, b);
    }

    #[test]
    fn actor_id_display_and_index() {
        let id = ActorId::from_index(9);
        assert_eq!(id.index(), 9);
        assert_eq!(id.to_string(), "actor#9");
    }
}
