//! Property-based tests of the simulation kernel's core guarantees:
//! deterministic replay, causal event ordering, and fault-injection
//! semantics under randomized scenarios.

use aqf_sim::{Actor, ActorId, Context, SimDuration, SimTime, Timer, TimerId, World};
use proptest::prelude::*;

/// Records every delivery with its virtual timestamp; bounces a counter
/// back to the sender so traffic keeps flowing.
#[derive(Default)]
struct Recorder {
    log: Vec<(u64, ActorId, u64)>, // (time_us, from, value)
    bounce: bool,
}

impl Actor<u64> for Recorder {
    fn on_message(&mut self, from: ActorId, msg: u64, ctx: &mut Context<'_, u64>) {
        self.log.push((ctx.now().as_micros(), from, msg));
        if self.bounce && msg > 0 && from != aqf_sim::world::EXTERNAL {
            ctx.send(from, msg - 1);
        }
    }
    fn on_timer(&mut self, _: Timer, _: &mut Context<'_, u64>) {}
}

fn run_world(
    seed: u64,
    actors: usize,
    injections: &[(usize, u64, u64)], // (target, value, at_ms)
    loss: f64,
) -> Vec<Vec<(u64, ActorId, u64)>> {
    let mut world: World<u64> = World::new(seed);
    world.net_mut().set_loss_probability(loss);
    let ids: Vec<ActorId> = (0..actors)
        .map(|_| {
            world.add_actor(Box::new(Recorder {
                log: vec![],
                bounce: true,
            }))
        })
        .collect();
    for &(target, value, at_ms) in injections {
        world.send_external(
            ids[target % actors],
            value % 8,
            SimTime::from_millis(at_ms % 5_000),
        );
    }
    world.run_for(SimDuration::from_secs(30));
    ids.iter()
        .map(|&id| world.actor::<Recorder>(id).unwrap().log.clone())
        .collect()
}

/// Exercises every command kind at once: each delivery arms a batch of
/// timers, cancels a seed-chosen subset of the ones still pending, and
/// multicasts to the peer group; each timer fire logs and re-sends. The
/// ordered log is the full observable history of the interleaving.
struct Churner {
    peers: Vec<ActorId>,
    /// Cancel the pending timer at `now.micros % (pending + 1)` when this
    /// knob is set — a deterministic but input-dependent choice.
    cancel_stride: u64,
    pending: Vec<TimerId>,
    log: Vec<(u64, &'static str, u64)>, // (time_us, event, detail)
}

impl Actor<u64> for Churner {
    fn on_message(&mut self, _from: ActorId, msg: u64, ctx: &mut Context<'_, u64>) {
        self.log.push((ctx.now().as_micros(), "deliver", msg));
        if msg == 0 {
            return;
        }
        for k in 0..(msg % 3) + 1 {
            let id = ctx.set_timer(k as u32, SimDuration::from_millis(5 + 3 * k));
            self.pending.push(id);
        }
        if self.cancel_stride > 0 && !self.pending.is_empty() {
            let victim = (ctx.now().as_micros() / self.cancel_stride) as usize % self.pending.len();
            ctx.cancel_timer(self.pending.swap_remove(victim));
        }
        ctx.multicast(&self.peers, msg - 1);
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, u64>) {
        self.log
            .push((ctx.now().as_micros(), "timer", u64::from(timer.kind)));
        if let Some(&first) = self.peers.first() {
            ctx.send(first, u64::from(timer.kind));
        }
    }
}

fn run_churn(
    seed: u64,
    actors: usize,
    cancel_stride: u64,
    injections: &[(usize, u64, u64)],
    crash: Option<(usize, u64, u64)>, // (target, crash_ms, gap_ms)
) -> Vec<Vec<(u64, &'static str, u64)>> {
    let mut world: World<u64> = World::new(seed);
    world.net_mut().set_loss_probability(0.05);
    world.net_mut().set_duplicate_probability(0.02);
    let ids: Vec<ActorId> = (0..actors).map(ActorId::from_index).collect();
    for i in 0..actors {
        let peers: Vec<ActorId> = ids.iter().copied().filter(|&p| p != ids[i]).collect();
        world.add_actor(Box::new(Churner {
            peers,
            cancel_stride,
            pending: vec![],
            log: vec![],
        }));
    }
    if let Some((target, crash_ms, gap_ms)) = crash {
        let at = SimTime::from_millis(crash_ms % 2_000);
        world.schedule_crash(ids[target % actors], at);
        world.schedule_restart(
            ids[target % actors],
            at + SimDuration::from_millis(gap_ms % 2_000),
        );
    }
    for &(target, value, at_ms) in injections {
        world.send_external(
            ids[target % actors],
            value % 6,
            SimTime::from_millis(at_ms % 3_000),
        );
    }
    world.run_for(SimDuration::from_secs(20));
    ids.iter()
        .map(|&id| world.actor::<Churner>(id).unwrap().log.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaved sends, multicasts, timer arms, cancels, and a crash +
    /// restart replay to identical per-actor histories under loss and
    /// duplication — the event order the scratch buffer, timer slab, and
    /// `SendMany` fast paths must all preserve.
    #[test]
    fn churn_interleaving_is_deterministic(
        seed in 0u64..1000,
        actors in 2usize..6,
        cancel_stride in 0u64..5000,
        injections in proptest::collection::vec((0usize..6, 1u64..6, 0u64..3000), 1..12),
        crash in proptest::option::of((0usize..6, 100u64..2000, 100u64..2000)),
    ) {
        let a = run_churn(seed, actors, cancel_stride, &injections, crash);
        let b = run_churn(seed, actors, cancel_stride, &injections, crash);
        prop_assert_eq!(a, b);
    }

    /// A cancelled timer never fires: with the stride knob active, the
    /// cancelled subset varies per input, yet per-actor time stays
    /// monotone and no timer event lands after the run completes without
    /// its arm (fires only ever carry kinds that were armed: 0..3).
    #[test]
    fn cancelled_timers_stay_dead(
        seed in 0u64..1000,
        actors in 2usize..5,
        cancel_stride in 1u64..5000,
        injections in proptest::collection::vec((0usize..5, 1u64..6, 0u64..3000), 1..10),
    ) {
        let logs = run_churn(seed, actors, cancel_stride, &injections, None);
        for log in logs {
            prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
            for &(_, event, detail) in &log {
                if event == "timer" {
                    prop_assert!(detail < 3, "fired kind {detail} was never armed");
                }
            }
        }
    }

    /// Same seed + same construction => identical histories, event for
    /// event, regardless of loss and bounce cascades.
    #[test]
    fn replay_is_deterministic(
        seed in 0u64..1000,
        actors in 1usize..6,
        injections in proptest::collection::vec((0usize..6, 0u64..8, 0u64..5000), 1..24),
        loss in 0.0f64..0.4,
    ) {
        let a = run_world(seed, actors, &injections, loss);
        let b = run_world(seed, actors, &injections, loss);
        prop_assert_eq!(a, b);
    }

    /// Virtual time never runs backwards within any actor's delivery log.
    #[test]
    fn per_actor_time_is_monotone(
        seed in 0u64..1000,
        actors in 1usize..6,
        injections in proptest::collection::vec((0usize..6, 0u64..8, 0u64..5000), 1..24),
    ) {
        let logs = run_world(seed, actors, &injections, 0.0);
        for log in logs {
            prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        }
    }

    /// A crashed actor receives nothing between crash and restart.
    #[test]
    fn crashed_actor_is_silent(
        seed in 0u64..1000,
        crash_ms in 100u64..2000,
        gap_ms in 100u64..2000,
    ) {
        let mut world: World<u64> = World::new(seed);
        let a = world.add_actor(Box::new(Recorder { log: vec![], bounce: false }));
        let crash_at = SimTime::from_millis(crash_ms);
        let restart_at = crash_at + SimDuration::from_millis(gap_ms);
        world.schedule_crash(a, crash_at);
        world.schedule_restart(a, restart_at);
        for ms in (0..4000u64).step_by(50) {
            world.send_external(a, ms, SimTime::from_millis(ms));
        }
        world.run_for(SimDuration::from_secs(10));
        let log = &world.actor::<Recorder>(a).unwrap().log;
        for &(t_us, _, _) in log {
            let t = SimTime::from_micros(t_us);
            prop_assert!(
                t < crash_at || t >= restart_at,
                "delivery at {t} inside the dead window [{crash_at}, {restart_at})"
            );
        }
    }

    /// With zero loss and no partitions, every injected message is
    /// delivered exactly once.
    #[test]
    fn reliable_network_delivers_exactly_once(
        seed in 0u64..1000,
        n in 1usize..64,
    ) {
        let mut world: World<u64> = World::new(seed);
        let a = world.add_actor(Box::new(Recorder { log: vec![], bounce: false }));
        for i in 0..n {
            world.send_external(a, i as u64, SimTime::from_millis(i as u64));
        }
        world.run_for(SimDuration::from_secs(5));
        let log = &world.actor::<Recorder>(a).unwrap().log;
        prop_assert_eq!(log.len(), n);
        let mut values: Vec<u64> = log.iter().map(|&(_, _, v)| v).collect();
        values.sort_unstable();
        prop_assert_eq!(values, (0..n as u64).collect::<Vec<_>>());
    }
}

/// Delays that straddle every boundary an event queue may keep: the 1 µs
/// instant, the 2 048 µs and 4 096 µs windows, the 512 × 2 048 µs
/// (~1.05 s) horizon and its neighbours, and long waits up to 40 s.
const EDGE_DELAYS_US: [u64; 22] = [
    0, 1, 2, 2_047, 2_048, 2_049, 4_095, 4_096, 4_097, 6_143, 6_144, 6_145, 1_048_575, 1_048_576,
    1_048_577, 1_050_623, 1_050_624, 1_050_625, 1_052_672, 2_097_152, 10_000_000, 40_000_000,
];

/// Picks an edge delay, or (for an index past the table) the raw draw.
fn edge_delay(index: usize, raw: u64) -> u64 {
    EDGE_DELAYS_US.get(index).copied().unwrap_or(raw)
}

/// The reference the world's pops are checked against: every scheduled
/// event as `(instant, tag)`, where tags grow in scheduling order.
#[derive(Default)]
struct Reference {
    pending: std::collections::BTreeSet<(u64, u64)>,
    next_tag: u64,
    pops: u64,
    /// `(kind, delay index, raw delay, target, fan-out)`, read cyclically.
    script: Vec<(u8, usize, u64, usize, u8)>,
    cursor: usize,
    budget: usize,
    /// The constant one-way delay of a send to each actor.
    dest_us: Vec<u64>,
}

impl Reference {
    fn schedule(&mut self, at: u64) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending.insert((at, tag));
        tag
    }

    /// Checks that the event the world popped is the reference's earliest.
    fn popped(&mut self, at: u64, tag: u64) {
        let first = self.pending.pop_first();
        assert_eq!(first, Some((at, tag)), "pop {} out of order", self.pops);
        self.pops += 1;
    }
}

/// Every delivery and timer checks itself against the shared reference,
/// then schedules the script's next local messages, timers and sends.
struct Scheduler {
    reference: std::rc::Rc<std::cell::RefCell<Reference>>,
    peers: Vec<ActorId>,
}

impl Scheduler {
    fn react(&mut self, tag: u64, ctx: &mut Context<'_, u64>) {
        let now = ctx.now().as_micros();
        let mut r = self.reference.borrow_mut();
        r.popped(now, tag);
        if r.script.is_empty() || r.budget == 0 {
            return;
        }
        let (_, _, _, _, fan_out) = r.script[r.cursor % r.script.len()];
        for _ in 0..fan_out {
            if r.budget == 0 {
                break;
            }
            r.budget -= 1;
            let (kind, index, raw, target, _) = r.script[r.cursor % r.script.len()];
            r.cursor += 1;
            let delay = edge_delay(index, raw);
            let at = now.saturating_add(delay);
            match kind {
                0 => {
                    let tag = r.schedule(at);
                    ctx.schedule_local(tag, SimDuration::from_micros(delay));
                }
                1 => {
                    let tag = r.schedule(at);
                    ctx.set_timer(tag as u32, SimDuration::from_micros(delay));
                }
                _ => {
                    let to = self.peers[target % self.peers.len()];
                    let one_way = r.dest_us[to.index()];
                    let tag = r.schedule(now.saturating_add(one_way));
                    ctx.send(to, tag);
                }
            }
        }
    }
}

impl Actor<u64> for Scheduler {
    fn on_message(&mut self, _: ActorId, tag: u64, ctx: &mut Context<'_, u64>) {
        self.react(tag, ctx);
    }
    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, u64>) {
        self.react(u64::from(timer.kind), ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Events pop in `(instant, scheduling order)` order whatever their
    /// delays: sends, local messages and timers at 0 µs, at every window
    /// and horizon boundary ±1, up to 40 s ahead and at the last instants
    /// before `u64::MAX`, interleaved with `run_until` bounds that stop
    /// between them and with injections from outside.
    #[test]
    fn events_pop_in_time_then_scheduling_order(
        seed in 0u64..1000,
        dest in proptest::collection::vec(0usize..EDGE_DELAYS_US.len(), 4..5),
        script in proptest::collection::vec(
            (0u8..3, 0usize..EDGE_DELAYS_US.len() + 4, 0u64..40_000_001, 0usize..4, 0u8..4),
            1..48,
        ),
        steps in proptest::collection::vec(
            (0usize..EDGE_DELAYS_US.len() + 4, 0u64..40_000_001, 0usize..4, 0usize..EDGE_DELAYS_US.len() + 4, 0u64..3),
            1..16,
        ),
        last_us in 0u64..5_000,
    ) {
        let mut world: World<u64> = World::new(seed);
        let ids: Vec<ActorId> = (0..4).map(ActorId::from_index).collect();
        let reference = std::rc::Rc::new(std::cell::RefCell::new(Reference {
            script,
            budget: 400,
            dest_us: dest.iter().map(|&i| EDGE_DELAYS_US[i]).collect(),
            ..Reference::default()
        }));
        for &id in &ids {
            let us = reference.borrow().dest_us[id.index()];
            world
                .net_mut()
                .set_dest_delay(id, aqf_sim::DelayModel::Constant(SimDuration::from_micros(us)));
            world.add_actor(Box::new(Scheduler {
                reference: reference.clone(),
                peers: ids.clone(),
            }));
        }
        // The last step jumps to the final instants before `u64::MAX`.
        let late = u64::MAX - last_us;
        for (i, &(index, raw, target, bound_index, mode)) in steps.iter().enumerate() {
            let now = world.now().as_micros();
            let base = if i + 1 == steps.len() { late.max(now) } else { now };
            let at = base.saturating_add(edge_delay(index, raw));
            let tag = reference.borrow_mut().schedule(at);
            world.send_external(ids[target], tag, SimTime::from_micros(at));
            // Bound: the injection's own instant, one before or after it,
            // or an edge delay past now.
            let bound = match mode {
                0 => at.saturating_sub(1).max(now),
                1 => at.saturating_add(1),
                _ => now.saturating_add(edge_delay(bound_index, raw / 2)),
            };
            world.run_until(SimTime::from_micros(bound));
            let r = reference.borrow();
            if let Some(&(first, _)) = r.pending.first() {
                prop_assert!(first > bound, "run_until({bound}) left {first} queued");
            }
            prop_assert_eq!(world.now().as_micros(), bound.max(now));
        }
        world.run_until(SimTime::from_micros(u64::MAX));
        let r = reference.borrow();
        prop_assert!(r.pending.is_empty(), "{} events never popped", r.pending.len());
        prop_assert_eq!(world.stats().events, r.pops);
    }
}
