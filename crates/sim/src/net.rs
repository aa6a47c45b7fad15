//! Network model: link delays, loss, duplication, gray degradation, and
//! partitions.

use crate::actor::ActorId;
use crate::delay::DelayModel;
use crate::hash::{FastMap, FastSet};
use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::Rng;

/// Models the network connecting the actors of a world.
///
/// Every ordered pair of actors has a delay model (the default unless
/// overridden per pair or per destination) plus an optional loss probability.
/// Partitions block delivery entirely in both directions until healed.
///
/// The default models a lightly loaded switched 100 Mbps LAN: uniform
/// 200–800 µs one-way latency and no loss.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    default_delay: DelayModel,
    // Pair-keyed state stays in hash containers (sparse, two-dimensional);
    // every per-actor table is a dense `Vec` indexed by `ActorId::index`,
    // so the per-message hot path (`dropped` / `sample_delay`) does array
    // probes instead of hashing. None of these is ever iterated, so
    // container order cannot leak into simulation behavior.
    pair_delay: FastMap<(ActorId, ActorId), DelayModel>,
    dest_delay: Vec<Option<DelayModel>>,
    loss_probability: f64,
    partitioned: FastSet<(ActorId, ActorId)>,
    degraded: Vec<Option<f64>>,
    actor_loss: Vec<Option<f64>>,
    link_loss: FastMap<(ActorId, ActorId), f64>,
    duplicate_probability: f64,
}

/// The fate of one message decided by [`NetworkModel::deliveries`]: lost
/// entirely, delivered once, or delivered plus an independently delayed
/// duplicate (at-least-once links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    /// One-way delay of the primary copy, or `None` if the message is lost.
    pub first: Option<SimDuration>,
    /// One-way delay of a duplicated copy, if the link duplicated it.
    pub duplicate: Option<SimDuration>,
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::new(DelayModel::Uniform {
            lo: SimDuration::from_micros(200),
            hi: SimDuration::from_micros(800),
        })
    }
}

impl NetworkModel {
    /// Creates a network where every link uses `default_delay` and no
    /// messages are lost.
    pub fn new(default_delay: DelayModel) -> Self {
        Self {
            default_delay,
            pair_delay: FastMap::default(),
            dest_delay: Vec::new(),
            loss_probability: 0.0,
            partitioned: FastSet::default(),
            degraded: Vec::new(),
            actor_loss: Vec::new(),
            link_loss: FastMap::default(),
            duplicate_probability: 0.0,
        }
    }

    /// Overrides the delay model for the ordered link `from -> to`.
    pub fn set_link_delay(&mut self, from: ActorId, to: ActorId, model: DelayModel) {
        self.pair_delay.insert((from, to), model);
    }

    /// Overrides the delay model for all messages delivered *to* `dest`
    /// (unless a per-pair override exists). Models a slow host.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is the reserved external sender id.
    pub fn set_dest_delay(&mut self, dest: ActorId, model: DelayModel) {
        dense_insert(&mut self.dest_delay, dest, model);
    }

    /// Sets the iid per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.loss_probability = p;
    }

    /// Blocks all traffic between `a` and `b` (both directions).
    pub fn partition(&mut self, a: ActorId, b: ActorId) {
        self.partitioned.insert(ordered(a, b));
    }

    /// Restores traffic between `a` and `b`.
    pub fn heal(&mut self, a: ActorId, b: ActorId) {
        self.partitioned.remove(&ordered(a, b));
    }

    /// Whether traffic between `a` and `b` is currently blocked.
    pub fn is_partitioned(&self, a: ActorId, b: ActorId) -> bool {
        self.partitioned.contains(&ordered(a, b))
    }

    /// Marks `target` as gray-degraded: every message to or from it takes
    /// `factor`× the sampled delay (both endpoints degraded compose
    /// multiplicatively). A slow-but-alive node, as opposed to a crash.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not at least 1, or if `target` is the reserved
    /// external sender id.
    pub fn degrade(&mut self, target: ActorId, factor: f64) {
        assert!(factor >= 1.0, "degrade factor must be >= 1");
        dense_insert(&mut self.degraded, target, factor);
    }

    /// Sets an iid loss probability for every message to or from `target`
    /// (a flaky NIC or overloaded host), on top of the global loss.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`, or if `target` is the reserved
    /// external sender id.
    pub fn set_actor_loss(&mut self, target: ActorId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        dense_insert(&mut self.actor_loss, target, p);
    }

    /// Sets an iid loss probability for the ordered link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_link_loss(&mut self, from: ActorId, to: ActorId, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0, 1]"
        );
        self.link_loss.insert((from, to), p);
    }

    /// Clears gray-failure state (degradation and per-actor loss) for
    /// `target`, restoring it to nominal behavior.
    pub fn restore(&mut self, target: ActorId) {
        if let Some(slot) = self.degraded.get_mut(target.index()) {
            *slot = None;
        }
        if let Some(slot) = self.actor_loss.get_mut(target.index()) {
            *slot = None;
        }
    }

    /// The latency multiplier currently applied to `target`, if any.
    pub fn degrade_factor(&self, target: ActorId) -> Option<f64> {
        self.degraded.get(target.index()).copied().flatten()
    }

    /// Sets the iid probability that a delivered message is delivered
    /// *twice*, with an independently sampled delay for the second copy
    /// (at-least-once delivery).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn set_duplicate_probability(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0, 1]"
        );
        self.duplicate_probability = p;
    }

    fn dropped(&self, from: ActorId, to: ActorId, rng: &mut SmallRng) -> bool {
        // Each sparse container is guarded by an emptiness check so the
        // common no-fault configuration pays no hashing at all. The RNG is
        // consulted under exactly the same conditions as before the dense
        // tables: only when an applicable probability is configured and
        // positive, keeping the draw sequence (and thus every seeded
        // history) unchanged.
        if !self.partitioned.is_empty() && self.is_partitioned(from, to) {
            return true;
        }
        if self.loss_probability > 0.0 && rng.gen_bool(self.loss_probability) {
            return true;
        }
        if !self.link_loss.is_empty() {
            if let Some(&p) = self.link_loss.get(&(from, to)) {
                if p > 0.0 && rng.gen_bool(p) {
                    return true;
                }
            }
        }
        for end in [from, to] {
            if let Some(p) = self.actor_loss.get(end.index()).copied().flatten() {
                if p > 0.0 && rng.gen_bool(p) {
                    return true;
                }
            }
        }
        false
    }

    fn sample_delay(&self, from: ActorId, to: ActorId, rng: &mut SmallRng) -> SimDuration {
        let pair = if self.pair_delay.is_empty() {
            None
        } else {
            self.pair_delay.get(&(from, to))
        };
        let model = pair
            .or_else(|| self.dest_delay.get(to.index()).and_then(Option::as_ref))
            .unwrap_or(&self.default_delay);
        let base = model.sample(rng);
        let mut factor = 1.0;
        if !self.degraded.is_empty() {
            for end in [from, to] {
                if let Some(f) = self.degraded.get(end.index()).copied().flatten() {
                    factor *= f;
                }
            }
        }
        if factor > 1.0 {
            SimDuration::from_micros((base.as_micros() as f64 * factor).round() as u64)
        } else {
            base
        }
    }

    /// Decides the fate of one message: `None` if dropped (loss or
    /// partition), otherwise the sampled one-way delay. Never duplicates;
    /// use [`NetworkModel::deliveries`] for at-least-once links.
    pub fn route(&self, from: ActorId, to: ActorId, rng: &mut SmallRng) -> Option<SimDuration> {
        if self.dropped(from, to, rng) {
            return None;
        }
        Some(self.sample_delay(from, to, rng))
    }

    /// Decides the full fate of one message, including duplication.
    pub fn deliveries(&self, from: ActorId, to: ActorId, rng: &mut SmallRng) -> Deliveries {
        let first = self.route(from, to, rng);
        let duplicate = match first {
            Some(_)
                if self.duplicate_probability > 0.0 && rng.gen_bool(self.duplicate_probability) =>
            {
                Some(self.sample_delay(from, to, rng))
            }
            _ => None,
        };
        Deliveries { first, duplicate }
    }
}

fn ordered(a: ActorId, b: ActorId) -> (ActorId, ActorId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Writes `value` into a dense per-actor table, growing it on demand.
///
/// The reserved external sender id ([`crate::world::EXTERNAL`]) is rejected:
/// it is not a configurable endpoint, and its `u32::MAX` index would force
/// the table to allocate for the entire id space.
fn dense_insert<T>(table: &mut Vec<Option<T>>, id: ActorId, value: T) {
    assert!(
        id != crate::world::EXTERNAL,
        "cannot configure the external sender"
    );
    let idx = id.index();
    if table.len() <= idx {
        table.resize_with(idx + 1, || None);
    }
    table[idx] = Some(value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    fn a(i: u32) -> ActorId {
        ActorId(i)
    }

    #[test]
    fn default_lan_delays() {
        let net = NetworkModel::default();
        let mut r = rng();
        for _ in 0..100 {
            let d = net.route(a(0), a(1), &mut r).unwrap().as_micros();
            assert!((200..=800).contains(&d));
        }
    }

    #[test]
    fn pair_override_beats_dest_override() {
        let mut net = NetworkModel::default();
        net.set_dest_delay(a(1), DelayModel::constant_ms(10));
        net.set_link_delay(a(0), a(1), DelayModel::constant_ms(1));
        let mut r = rng();
        assert_eq!(
            net.route(a(0), a(1), &mut r).unwrap(),
            SimDuration::from_millis(1)
        );
        // Other senders to dest 1 get the dest override.
        assert_eq!(
            net.route(a(2), a(1), &mut r).unwrap(),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn partition_blocks_both_directions() {
        let mut net = NetworkModel::default();
        net.partition(a(0), a(1));
        let mut r = rng();
        assert!(net.route(a(0), a(1), &mut r).is_none());
        assert!(net.route(a(1), a(0), &mut r).is_none());
        assert!(net.route(a(0), a(2), &mut r).is_some());
        net.heal(a(1), a(0));
        assert!(net.route(a(0), a(1), &mut r).is_some());
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut net = NetworkModel::default();
        net.set_loss_probability(1.0);
        let mut r = rng();
        for _ in 0..10 {
            assert!(net.route(a(0), a(1), &mut r).is_none());
        }
    }

    #[test]
    fn partial_loss_drops_some() {
        let mut net = NetworkModel::default();
        net.set_loss_probability(0.5);
        let mut r = rng();
        let delivered = (0..1000)
            .filter(|_| net.route(a(0), a(1), &mut r).is_some())
            .count();
        assert!((300..700).contains(&delivered), "delivered = {delivered}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_probability_panics() {
        NetworkModel::default().set_loss_probability(1.5);
    }

    #[test]
    fn degrade_multiplies_latency_both_directions() {
        let mut net = NetworkModel::new(DelayModel::constant_ms(2));
        net.degrade(a(1), 5.0);
        let mut r = rng();
        assert_eq!(
            net.route(a(0), a(1), &mut r).unwrap(),
            SimDuration::from_millis(10)
        );
        assert_eq!(
            net.route(a(1), a(0), &mut r).unwrap(),
            SimDuration::from_millis(10)
        );
        // Unrelated links are unaffected.
        assert_eq!(
            net.route(a(0), a(2), &mut r).unwrap(),
            SimDuration::from_millis(2)
        );
        assert_eq!(net.degrade_factor(a(1)), Some(5.0));
        net.restore(a(1));
        assert_eq!(
            net.route(a(0), a(1), &mut r).unwrap(),
            SimDuration::from_millis(2)
        );
        assert_eq!(net.degrade_factor(a(1)), None);
    }

    #[test]
    fn actor_loss_applies_to_and_from_target() {
        let mut net = NetworkModel::default();
        net.set_actor_loss(a(1), 1.0);
        let mut r = rng();
        assert!(net.route(a(0), a(1), &mut r).is_none());
        assert!(net.route(a(1), a(0), &mut r).is_none());
        assert!(net.route(a(0), a(2), &mut r).is_some());
        net.restore(a(1));
        assert!(net.route(a(0), a(1), &mut r).is_some());
    }

    #[test]
    fn link_loss_is_directional() {
        let mut net = NetworkModel::default();
        net.set_link_loss(a(0), a(1), 1.0);
        let mut r = rng();
        assert!(net.route(a(0), a(1), &mut r).is_none());
        assert!(net.route(a(1), a(0), &mut r).is_some());
    }

    #[test]
    fn duplicates_deliver_two_copies() {
        let mut net = NetworkModel::new(DelayModel::constant_ms(1));
        net.set_duplicate_probability(1.0);
        let mut r = rng();
        let d = net.deliveries(a(0), a(1), &mut r);
        assert!(d.first.is_some());
        assert!(d.duplicate.is_some());
        // Lost messages are never duplicated.
        net.set_loss_probability(1.0);
        let d = net.deliveries(a(0), a(1), &mut r);
        assert!(d.first.is_none() && d.duplicate.is_none());
    }

    #[test]
    fn partial_duplicate_rate() {
        let mut net = NetworkModel::default();
        net.set_duplicate_probability(0.3);
        let mut r = rng();
        let dups = (0..1000)
            .filter(|_| net.deliveries(a(0), a(1), &mut r).duplicate.is_some())
            .count();
        assert!((200..400).contains(&dups), "dups = {dups}");
    }
}
