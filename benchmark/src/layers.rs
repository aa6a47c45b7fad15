//! Isolated layer drivers: each times one public entry point of one crate
//! on a fixed, seeded input, outside any scenario. They answer "did this
//! layer itself get faster" when a workload's end-to-end number moves.
//!
//! Every driver reports the median of `REPS` repetitions of a batch large
//! enough (>= ~5 ms) that `Instant` resolution does not matter.

use crate::metrics::{median, Report};
use crate::speed::{self, probe};
use aqf_core::{select_replicas, InfoRepository};
use aqf_group::endpoint::GroupMembership;
use aqf_group::{EndpointConfig, Envelope, GroupEndpoint, GroupEvent, GroupId, View, ViewId};
use aqf_sim::{Actor, ActorId, Context, NetworkModel, SimDuration, SimTime, Timer, World};
use aqf_stats::Pmf;
use aqf_store::{decode_stream, encode_record, StorageConfig, VirtualDisk};
use aqf_workload::{build_candidates, synthetic_repository};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median over `REPS` of `batch()`'s `(elapsed ns, operations)` as
/// speed-normalised ns/op.
fn ns_per_op(mut batch: impl FnMut() -> (f64, u64)) -> f64 {
    let mut before = probe();
    let mut samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = batch();
            let after = probe();
            let factor = speed::factor(before, after);
            before = after;
            ns * factor / ops as f64
        })
        .collect();
    median(&mut samples)
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_nanos() as f64, out)
}

/// Runs every driver. `scale` shrinks the batches (`--quick`).
pub fn run_all(seed: u64, scale: u64, report: &mut Report) {
    report.set(
        "sim.world.dispatch_ns",
        world_dispatch(seed, 200_000 / scale),
    );
    report.set("sim.world.timer_ns", world_timers(seed, 100_000 / scale));
    report.set(
        "sim.net.route_ns.clean",
        net_route(seed, false, 1_000_000 / scale),
    );
    report.set(
        "sim.net.route_ns.faulty",
        net_route(seed, true, 1_000_000 / scale),
    );
    report.set(
        "group.multicast_ns_per_delivery.n16",
        group_burst(seed, 16, 500 / scale, 0.0),
    );
    report.set(
        "group.multicast_ns_per_delivery.n16-loss10",
        group_burst(seed, 16, 500 / scale, 0.10),
    );
    report.set("group.idle_ns_per_member_tick.n16", group_idle(seed, 16));
    report.set("group.idle_ns_per_member_tick.n64", group_idle(seed, 64));
    let (convolve, lookup) = pmf(seed, 2_000 / scale);
    report.set("stats.pmf.convolve_ns.w20", convolve);
    report.set("stats.pmf.cdf_lookup_ns", lookup);
    let (warm, cold) = selection(seed, 10, 2_000 / scale);
    report.set("core.client.select_us.warm.n10", warm);
    report.set("core.client.select_us.cold.n10", cold);
    report.set("core.client.select_us.cold.n57", selection(seed, 57, 1).1);
    let (append, replay) = wal(seed, 20_000 / scale);
    report.set("store.wal.append_ns", append);
    report.set("store.wal.replay_ns_per_record", replay);
}

/// Relays every message to the next actor of the ring.
struct Relay {
    next: ActorId,
}

impl Actor<u32> for Relay {
    fn on_message(&mut self, _: ActorId, msg: u32, ctx: &mut Context<'_, u32>) {
        ctx.send(self.next, msg);
    }
    fn on_timer(&mut self, _: Timer, _: &mut Context<'_, u32>) {}
}

/// ns per event of a bare `World<u32>`: 8 tokens circling an 8-actor ring
/// (queue pop, dispatch, one `Send`, one network fate, queue push).
fn world_dispatch(seed: u64, events: u64) -> f64 {
    ns_per_op(|| {
        let mut world: World<u32> = World::new(seed);
        for i in 0..8 {
            world.add_actor(Box::new(Relay {
                next: ActorId::from_index((i + 1) % 8),
            }));
        }
        for i in 0..8 {
            world.send_external(ActorId::from_index(i), i as u32, SimTime::ZERO);
        }
        let (ns, done) = timed(|| world.run_until_idle(events));
        (ns, done)
    })
}

/// Every fire arms two timers and cancels one of them, so the queue always
/// holds as many stale entries as live ones.
struct TimerChurn;

impl Actor<u32> for TimerChurn {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(0, SimDuration::from_micros(10));
    }
    fn on_message(&mut self, _: ActorId, _: u32, _: &mut Context<'_, u32>) {}
    fn on_timer(&mut self, _: Timer, ctx: &mut Context<'_, u32>) {
        let jitter = ctx.rng().gen_range(1..50u64);
        ctx.set_timer(0, SimDuration::from_micros(10 + jitter));
        let doomed = ctx.set_timer(1, SimDuration::from_micros(5 + jitter));
        ctx.cancel_timer(doomed);
    }
}

/// ns per fired timer under arm/cancel/fire churn (16 independent actors).
fn world_timers(seed: u64, fires: u64) -> f64 {
    ns_per_op(|| {
        let mut world: World<u32> = World::new(seed);
        for _ in 0..16 {
            world.add_actor(Box::new(TimerChurn));
        }
        // Each fire is followed by the pop of the timer it cancelled.
        let (ns, _) = timed(|| world.run_until_idle(2 * fires));
        (ns, world.stats().timers)
    })
}

/// ns per `NetworkModel::deliveries` call over a 64-actor id space, with
/// empty fault tables or with every table populated (global loss and
/// duplication, degraded and lossy actors, lossy links, partitions).
fn net_route(seed: u64, faulty: bool, calls: u64) -> f64 {
    let id = ActorId::from_index;
    let mut net = NetworkModel::default();
    if faulty {
        net.set_loss_probability(0.02);
        net.set_duplicate_probability(0.01);
        for i in 0..8 {
            net.degrade(id(i), 3.0);
            net.set_actor_loss(id(8 + i), 0.15);
            net.set_link_loss(id(16 + i), id(24 + i), 0.2);
            net.partition(id(32 + i), id(40 + i));
        }
    }
    ns_per_op(|| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (ns, _) = timed(|| {
            for k in 0..calls {
                let (from, to) = (id((k % 64) as usize), id(((k * 7 + 1) % 64) as usize));
                black_box(net.deliveries(from, to, &mut rng));
            }
        });
        (ns, calls)
    })
}

const GROUP: GroupId = GroupId(1);
const SEND: u32 = 1;

/// A group member; member 0 multicasts `to_send` payloads 100 µs apart.
struct Member {
    ep: GroupEndpoint<u64>,
    to_send: u64,
    sent: u64,
    delivered: u64,
}

impl Actor<Envelope<u64>> for Member {
    fn on_start(&mut self, ctx: &mut Context<'_, Envelope<u64>>) {
        self.ep.on_start(ctx);
        if self.to_send > 0 {
            ctx.set_timer(SEND, SimDuration::from_micros(100));
        }
    }
    fn on_message(
        &mut self,
        from: ActorId,
        msg: Envelope<u64>,
        ctx: &mut Context<'_, Envelope<u64>>,
    ) {
        for ev in self.ep.handle_message(from, msg, ctx) {
            if matches!(ev, GroupEvent::Delivered { .. }) {
                self.delivered += 1;
            }
        }
    }
    fn on_timer(&mut self, timer: Timer, ctx: &mut Context<'_, Envelope<u64>>) {
        if self.ep.handle_timer(timer, ctx).is_some() {
            return;
        }
        if timer.kind == SEND && self.sent < self.to_send {
            self.ep.multicast(GROUP, self.sent, ctx);
            self.sent += 1;
            if self.sent < self.to_send {
                ctx.set_timer(SEND, SimDuration::from_micros(100));
            }
        }
    }
}

fn group_world(seed: u64, members: usize, messages: u64, loss: f64) -> World<Envelope<u64>> {
    let mut world: World<Envelope<u64>> = World::new(seed);
    world.net_mut().set_loss_probability(loss);
    let ids: Vec<ActorId> = (0..members).map(ActorId::from_index).collect();
    let view = View::new(GROUP, ViewId(0), ids.clone());
    for (i, &id) in ids.iter().enumerate() {
        let ep = GroupEndpoint::new(
            id,
            EndpointConfig::default(),
            vec![GroupMembership {
                view: view.clone(),
                observers: vec![],
            }],
            vec![],
        );
        world.add_actor(Box::new(Member {
            ep,
            to_send: if i == 0 { messages } else { 0 },
            sent: 0,
            delivered: 0,
        }));
    }
    world
}

/// Host ns per delivered payload of a reliable FIFO multicast burst from
/// one member to the other `members - 1`, run to quiescence (heartbeats,
/// acks and, under loss, nacks and retransmissions included).
fn group_burst(seed: u64, members: usize, messages: u64, loss: f64) -> f64 {
    ns_per_op(|| {
        let mut world = group_world(seed, members, messages, loss);
        let (ns, _) = timed(|| world.run_for(SimDuration::from_secs(60)));
        let delivered: u64 = (0..members)
            .map(|i| {
                world
                    .actor::<Member>(ActorId::from_index(i))
                    .expect("member actor type")
                    .delivered
            })
            .sum();
        assert_eq!(
            delivered,
            messages * (members as u64 - 1),
            "burst delivered"
        );
        (ns, delivered)
    })
}

/// Host ns per member per group tick of an idle group over 60 virtual s:
/// the heartbeat fan-out (each tick sends to every other member, so the
/// per-tick cost grows with the group) plus its deliveries.
fn group_idle(seed: u64, members: usize) -> f64 {
    let virtual_secs = 60;
    let ticks_per_member =
        virtual_secs * 1000 / EndpointConfig::default().tick_interval.as_millis();
    ns_per_op(|| {
        let mut world = group_world(seed, members, 0, 0.0);
        let (ns, _) = timed(|| world.run_for(SimDuration::from_secs(virtual_secs)));
        (ns, ticks_per_member * members as u64)
    })
}

/// `(convolve ns, cdf lookup ns)`: `S ⊛ W` of two 20-sample empirical pmfs
/// (the client's window size) and a lookup in the ~400-point result.
fn pmf(seed: u64, convolutions: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut window =
        |mean_us: u64| Pmf::from_samples((0..20).map(|_| mean_us / 2 + rng.gen_range(0..mean_us)));
    let (service, wait) = (window(100_000), window(10_000));
    let convolve = ns_per_op(|| {
        let (ns, _) = timed(|| {
            for _ in 0..convolutions {
                black_box(black_box(&service).convolve(black_box(&wait)));
            }
        });
        (ns, convolutions)
    });
    let sum = service.convolve(&wait);
    let lookups = convolutions * 500;
    let lookup = ns_per_op(|| {
        let (ns, _) = timed(|| {
            let mut acc = 0.0;
            for k in 0..lookups {
                acc += black_box(&sum).cdf(50_000 + (k % 128) * 1_000);
            }
            black_box(acc);
        });
        (ns, lookups)
    });
    (convolve, lookup)
}

/// `(warm µs, cold µs)` of one selection — `build_candidates` +
/// `select_replicas`, the paper's Fig. 3 overhead — over `n` replicas with
/// full windows of 20. Cold is the first call on a freshly built repository
/// (built outside the span), so every `S⊛W` is convolved; warm repeats the
/// call on unchanged windows and is answered from the repository's cache.
fn selection(seed: u64, n: usize, warm_calls: u64) -> (f64, f64) {
    /// `P(A_s(t) <= a)` handed to Algorithm 1; any value in (0, 1] selects.
    const STALENESS_FACTOR: f64 = 0.9;
    let deadline = SimDuration::from_millis(150);
    let now = SimTime::from_secs(100);
    let sequencer = Some(ActorId::from_index(0));
    let select = |repo: &InfoRepository| {
        let candidates = build_candidates(repo, n, n.div_ceil(3), deadline, now);
        black_box(select_replicas(
            &candidates,
            STALENESS_FACTOR,
            0.9,
            sequencer,
        ));
    };
    let mut cold: Vec<f64> = (0..4 * REPS as u64)
        .map(|k| {
            let repo = synthetic_repository(n, 20, seed ^ k);
            speed::normalised(|| select(&repo)).0 * 1e6
        })
        .collect();
    let repo = synthetic_repository(n, 20, seed);
    select(&repo);
    let warm = ns_per_op(|| {
        let (ns, _) = timed(|| (0..warm_calls).for_each(|_| select(&repo)));
        (ns, warm_calls)
    }) / 1e3;
    (warm, median(&mut cold))
}

/// `(append ns, replay ns per record)`: frame + append 64-byte records to a
/// sync-before-ack `VirtualDisk`, then decode the durable log.
fn wal(seed: u64, records: u64) -> (f64, f64) {
    let body = [0xA5u8; 64];
    let fill = || {
        let mut disk = VirtualDisk::new(StorageConfig::durable(), seed);
        for _ in 0..records {
            let mut framed = Vec::new();
            encode_record(&body, &mut framed);
            disk.append_record(framed);
        }
        disk
    };
    let append = ns_per_op(|| {
        let (ns, disk) = timed(fill);
        assert_eq!(disk.stats().appends, records);
        (ns, records)
    });
    let disk = fill();
    let replay = ns_per_op(|| {
        let (ns, decoded) = timed(|| decode_stream(disk.durable_wal()));
        assert_eq!(decoded.records.len() as u64, records);
        (ns, records)
    });
    (append, replay)
}
