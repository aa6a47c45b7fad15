//! Deterministic discrete-event simulation kernel for the AQF middleware.
//!
//! The paper's evaluation ran on a LAN of Linux machines; this crate replaces
//! that testbed with a reproducible virtual-time simulator so that every
//! figure can be regenerated deterministically from a seed. The protocol code
//! built on top (group communication, gateways, clients) is written as
//! [`Actor`]s — event-driven state machines — so the same logic that runs
//! here could be driven by a real network runtime.
//!
//! # Architecture
//!
//! * [`time`] — `SimTime` / `SimDuration`, microsecond-resolution virtual time.
//! * [`delay`] — random delay models (constant, uniform, normal, exponential,
//!   empirical) used for link latencies and service times.
//! * [`actor`] — the `Actor` trait and the `Context` through which actors
//!   send messages, set timers, and sample randomness.
//! * [`hash`] — [`FastMap`], the fixed-keyed map type of the event path.
//! * [`net`] — the network model: per-link delay distributions, loss, and
//!   partitions.
//! * [`world`] — the event queue and scheduler, plus crash/restart fault
//!   injection.
//!
//! # Determinism
//!
//! Events are ordered by `(virtual time, sequence number)`; every actor owns
//! an RNG stream derived from the world seed and its id, and the network owns
//! a separate stream. Two runs with the same seed and the same actor
//! construction order produce identical histories.
//!
//! # Example
//!
//! ```
//! use aqf_sim::{Actor, ActorId, Context, SimDuration, Timer, World};
//!
//! struct Ping { peer: Option<ActorId>, got: u32 }
//!
//! impl Actor<&'static str> for Ping {
//!     fn on_start(&mut self, ctx: &mut Context<'_, &'static str>) {
//!         if let Some(peer) = self.peer {
//!             ctx.send(peer, "ping");
//!         }
//!     }
//!     fn on_message(&mut self, from: ActorId, msg: &'static str, ctx: &mut Context<'_, &'static str>) {
//!         self.got += 1;
//!         if msg == "ping" {
//!             ctx.send(from, "pong");
//!         }
//!     }
//!     fn on_timer(&mut self, _: Timer, _: &mut Context<'_, &'static str>) {}
//! }
//!
//! let mut world = World::new(7);
//! let a = world.add_actor(Box::new(Ping { peer: None, got: 0 }));
//! let b = world.add_actor(Box::new(Ping { peer: Some(a), got: 0 }));
//! world.run_for(SimDuration::from_secs(1));
//! # let _ = b;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod delay;
pub mod digest;
pub mod hash;
pub mod net;
mod queue;
pub mod time;
mod timer;
pub mod world;

pub use actor::{Actor, ActorId, Context, Timer, TimerId};
pub use delay::DelayModel;
pub use digest::Digest;
pub use hash::{FastHasher, FastMap, FastSet};
pub use net::NetworkModel;
pub use time::{SimDuration, SimTime};
pub use world::{World, WorldStats};
