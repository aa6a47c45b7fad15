//! Allocation ceilings on the hot paths: the one gate the repo benchmark
//! (`benchmark/`, which times every layer) does not carry.
//!
//! This binary installs a counting global allocator, runs each path warm and
//! fails when allocations per unit of work exceed a ceiling. Counts are
//! exact, not timings, so each ceiling sits a little above the measured
//! count and one more allocation per request — a per-callback action `Vec`,
//! a deep clone per multicast copy, a reply buffer grown afresh — fails it.
//!
//! ```text
//! cargo bench -p aqf-bench --bench alloc_gates
//! ```

use aqf_bench::{primary_gateway, primary_view, secondary_view};
use aqf_core::causal::Causal;
use aqf_core::fifo::Fifo;
use aqf_core::protocol::{drive_service, ServerProtocol};
use aqf_core::server::Sequential;
use aqf_core::shell::ServerAction;
use aqf_core::wire::{
    CausalStamp, Operation, Payload, PerfBroadcast, ReadMeasurement, ReadRequest, Reply, RequestId,
    UpdateRequest,
};
use aqf_core::{
    ClientAction, ClientConfig, ClientGateway, QosSpec, RecoveryPolicy, StorageConfig, TimerPurpose,
};
use aqf_group::{DataMsg, Envelope, GroupId, GroupMsg};
use aqf_sim::{Actor, ActorId, Context, SimDuration, SimTime, Timer, World};
use aqf_workload::{run_scenario, world_bench_config};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// --- Counting allocator ----------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Counts heap acquisitions (`alloc` and `realloc`) and forwards to the
/// system allocator.
struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and publishes no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(allocations during f, f's result)`.
fn measure<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Prints one gate's measurement and records a failure when it is over.
fn gate(failures: &mut Vec<String>, name: &str, allocs: u64, units: u64, unit: &str, ceiling: f64) {
    let per_unit = allocs as f64 / units as f64;
    let verdict = if per_unit <= ceiling { "ok" } else { "FAIL" };
    println!(
        "alloc_gates/{name}: {allocs} allocs / {units} = {per_unit:.3} per {unit} \
         (ceiling {ceiling}) {verdict}"
    );
    if per_unit > ceiling {
        failures.push(format!("{name}: {per_unit:.3} > {ceiling}"));
    }
}

// --- Event core ------------------------------------------------------------

/// Forwards a decrementing token around a ring: every event is one
/// delivery plus one send, exercising the dispatch/scratch-buffer path
/// with no application logic.
struct Relay {
    next: ActorId,
}

impl Actor<u32> for Relay {
    fn on_message(&mut self, _: ActorId, msg: u32, ctx: &mut Context<'_, u32>) {
        if msg > 0 {
            ctx.send(self.next, msg - 1);
        }
    }
    fn on_timer(&mut self, _: Timer, _: &mut Context<'_, u32>) {}
}

fn ring_run(hops: u32) -> u64 {
    const N: usize = 8;
    let mut world: World<u32> = World::new(11);
    for i in 0..N {
        world.add_actor(Box::new(Relay {
            next: ActorId::from_index((i + 1) % N),
        }));
    }
    world.send_external(ActorId::from_index(0), hops, SimTime::ZERO);
    world.run_until_idle(u64::MAX);
    world.stats().delivered
}

/// One sender multicasting to the rest of the world over a lossy,
/// duplicating network: the shared-payload `SendMany` path.
struct Spray {
    peers: Vec<ActorId>,
    rounds: u32,
}

impl Actor<Vec<u8>> for Spray {
    fn on_start(&mut self, ctx: &mut Context<'_, Vec<u8>>) {
        if !self.peers.is_empty() {
            ctx.set_timer(1, SimDuration::from_micros(50));
        }
    }
    fn on_message(&mut self, _: ActorId, _: Vec<u8>, _: &mut Context<'_, Vec<u8>>) {}
    fn on_timer(&mut self, _: Timer, ctx: &mut Context<'_, Vec<u8>>) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        // A payload big enough that per-copy clones are visible.
        ctx.multicast(&self.peers, vec![0u8; 256]);
        ctx.set_timer(1, SimDuration::from_micros(50));
    }
}

fn multicast_run(members: usize, rounds: u32) -> u64 {
    let mut world: World<Vec<u8>> = World::new(13);
    world.net_mut().set_loss_probability(0.05);
    world.net_mut().set_duplicate_probability(0.02);
    let ids: Vec<ActorId> = (0..members).map(ActorId::from_index).collect();
    for i in 0..members {
        let peers = if i == 0 {
            ids[1..].to_vec()
        } else {
            Vec::new()
        };
        world.add_actor(Box::new(Spray { peers, rounds }));
    }
    world.run_until_idle(u64::MAX);
    world.stats().delivered
}

fn world_gates(failures: &mut Vec<String>) {
    /// Ring relay: `u32` messages, reused command buffer — the dispatch
    /// path itself must not allocate per event.
    const RING_CEILING: f64 = 0.05;
    /// Lossy multicast of 256-byte `Vec` payloads: one clone per delivered
    /// copy at the `World` level (`M = Vec<u8>` has no sharing), plus queue
    /// amortization; target lists come from the world's pool. Measured:
    /// 1.07.
    const MULTICAST_CEILING: f64 = 2.0;
    /// Full 16-actor faulty scenario: every layer together (group plane,
    /// gateways, clients, observability off). Measured: 1.514 per event
    /// (1.521 while an empty `Bytes` allocated its `Rc` counts, 1.56 while
    /// every heartbeat and idle announce was sealed afresh, 2.01 before WAL
    /// records were framed in place, duplicate checks hashed and
    /// deliveries built one buffer); a plane that deep-clones every
    /// multicast copy sits well above this.
    const SCENARIO_CEILING: f64 = 1.75;

    let _ = ring_run(4_000); // warm-up outside the counted window
    let (allocs, events) = measure(|| ring_run(4_000));
    gate(
        failures,
        "world/ring_delivery",
        allocs,
        events,
        "event",
        RING_CEILING,
    );

    let _ = multicast_run(16, 500);
    let (allocs, delivered) = measure(|| multicast_run(16, 500));
    gate(
        failures,
        "world/multicast_lossy",
        allocs,
        delivered,
        "event",
        MULTICAST_CEILING,
    );

    let config = world_bench_config(16, true);
    let _ = run_scenario(&config);
    let (allocs, m) = measure(|| run_scenario(&config));
    gate(
        failures,
        "world/scenario_16actors_faults",
        allocs,
        m.events,
        "event",
        SCENARIO_CEILING,
    );
}

// --- Envelope fan-out ------------------------------------------------------

/// Multicast fan-out, duplicate delivery and retransmission buffering clone
/// the sealed envelope, which must bump a refcount and nothing else.
fn envelope_gate(failures: &mut Vec<String>) {
    const COPIES: u64 = 64_000;
    let env: Envelope<Vec<u8>> = GroupMsg::Data(DataMsg {
        group: GroupId(1),
        incarnation: 0,
        seq: 7,
        payload: vec![0xA5; 1024],
    })
    .seal();
    let (allocs, ()) = measure(|| {
        for _ in 0..COPIES {
            std::hint::black_box(env.clone());
        }
    });
    gate(failures, "envelope/fanout", allocs, COPIES, "copy", 0.0);
}

// --- Server gateways -------------------------------------------------------

const CLIENT: usize = 999;
const SEQUENCER: usize = 0;
/// Requests per gate, after as many warm-up requests.
const REQUESTS: u64 = 10_000;

/// Runs requests `1..=REQUESTS` as warm-up, then counts the allocations of
/// the next `REQUESTS`.
fn allocs_warm(mut run: impl FnMut(u64)) -> u64 {
    (1..=REQUESTS).for_each(&mut run);
    measure(|| (REQUESTS + 1..=2 * REQUESTS).for_each(&mut run)).0
}

fn request(seq: u64) -> RequestId {
    RequestId {
        client: ActorId::from_index(CLIENT),
        seq,
    }
}

#[derive(Clone, Copy)]
enum Level {
    Sequential,
    Causal,
    Fifo,
}

#[derive(Clone, Copy)]
enum Op {
    Update,
    Read,
}

impl Level {
    fn gateway(self, storage: StorageConfig) -> Box<dyn ServerProtocol> {
        match self {
            Level::Sequential => Box::new(primary_gateway::<Sequential>(1, 3, 4, storage)),
            Level::Causal => Box::new(primary_gateway::<Causal>(1, 3, 4, storage)),
            Level::Fifo => Box::new(primary_gateway::<Fifo>(1, 3, 4, storage)),
        }
    }

    /// Delivers request `seq` (1-based, one client) up to its ordering
    /// point: the request itself, plus the sequencer's broadcast where the
    /// discipline waits for one.
    fn deliver(
        self,
        gw: &mut dyn ServerProtocol,
        op: Op,
        seq: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let (client, sequencer) = (ActorId::from_index(CLIENT), ActorId::from_index(SEQUENCER));
        let sequential = matches!(self, Level::Sequential);
        match op {
            Op::Update => {
                let update = UpdateRequest {
                    id: request(seq),
                    op: Operation::new("set", b"value".to_vec()),
                    attempt: 1,
                };
                let stamp = matches!(self, Level::Causal).then(|| CausalStamp {
                    update_seq: seq - 1,
                    deps: Vec::new(),
                });
                gw.on_payload(client, Payload::Update(update, stamp), now, out);
                if sequential {
                    let assign = Payload::GsnAssign {
                        req: request(seq),
                        gsn: seq,
                    };
                    gw.on_payload(sequencer, assign, now, out);
                }
            }
            Op::Read => {
                let read = ReadRequest {
                    id: request(seq),
                    op: Operation::new("get", Vec::new()),
                    staleness_threshold: 2,
                    deadline_us: 0,
                    attempt: 1,
                    deps: Vec::new(),
                };
                gw.on_payload(client, Payload::Read(read), now, out);
                if sequential {
                    let snapshot = Payload::GsnSnapshot {
                        req: request(seq),
                        gsn: gw.gsn(),
                    };
                    gw.on_payload(sequencer, snapshot, now, out);
                }
            }
        }
    }
}

/// One request through delivery, ordering and service, the way a host
/// runs it: one retained action buffer, cleared between requests.
fn run_op(
    level: Level,
    gw: &mut dyn ServerProtocol,
    op: Op,
    seq: u64,
    actions: &mut Vec<ServerAction>,
) {
    let now = SimTime::from_micros(seq * 1000);
    actions.clear();
    level.deliver(gw, op, seq, now, actions);
    drive_service(gw, actions, now, SimDuration::from_micros(10));
}

fn server_gates(failures: &mut Vec<String>) {
    /// `(update commit, read admit, durable update commit)` ceilings.
    /// Measured: 3.00 and 1.00 per op. Two of an update's are this bench's
    /// own `Operation` (the payload `Vec` and its `Bytes`), one the reply's
    /// result; a read's is the reply (2.00 while its empty payload's
    /// `Bytes` still allocated its `Rc` counts).
    /// Causal updates 5.00 (the admitted copy of the request and the
    /// reply's vector stamp). Durable updates 3.05 (causal 5.12): the WAL
    /// append itself allocates nothing, the rest is a snapshot every 64
    /// commits. Before in-place framing and hashed duplicate checks: 5.17,
    /// 3.00, 7.17, and durable 10.32 (causal 12.40).
    const LEVELS: [(&str, Level, f64, f64, f64); 3] = [
        ("sequential", Level::Sequential, 3.5, 1.5, 3.5),
        ("causal", Level::Causal, 5.5, 1.5, 5.5),
        ("fifo", Level::Fifo, 3.5, 1.5, 3.5),
    ];
    for (level_name, level, update_ceiling, read_ceiling, durable_ceiling) in LEVELS {
        for (op_name, op, storage, ceiling) in [
            (
                "update_commit_apply",
                Op::Update,
                StorageConfig::disabled(),
                update_ceiling,
            ),
            (
                "read_admit_service",
                Op::Read,
                StorageConfig::disabled(),
                read_ceiling,
            ),
            // Sync-before-ack WAL appends and a snapshot every 64 commits.
            (
                "update_commit_durable",
                Op::Update,
                StorageConfig::durable(),
                durable_ceiling,
            ),
        ] {
            let mut gw = level.gateway(storage);
            let mut actions = Vec::new();
            let allocs = allocs_warm(|seq| run_op(level, &mut *gw, op, seq, &mut actions));
            gate(
                failures,
                &format!("gateway/{level_name}/{op_name}"),
                allocs,
                REQUESTS,
                "op",
                ceiling,
            );
        }
    }
}

// --- Client gateway --------------------------------------------------------

/// A client gateway on the base path (recovery and overload off, as in every
/// repo-benchmark workload) whose repository is warm, so Algorithm 1 picks a
/// small set.
fn client_gateway() -> ClientGateway {
    let config = ClientConfig {
        recovery: RecoveryPolicy::disabled(),
        ..ClientConfig::default()
    };
    let (primaries, secondaries) = (primary_view(3), secondary_view(4));
    let replicas: Vec<ActorId> = [primaries.members(), secondaries.members()].concat();
    let mut gw = ClientGateway::new(ActorId::from_index(CLIENT), primaries, secondaries, config);
    for (k, replica) in replicas.into_iter().enumerate() {
        for sample in 0..20u64 {
            let perf = PerfBroadcast {
                read: Some(ReadMeasurement {
                    ts_us: 5_000 + 500 * k as u64 + 50 * sample,
                    tq_us: 0,
                    tb_us: 0,
                }),
                publisher: None,
            };
            gw.on_payload(replica, Payload::Perf(perf), SimTime::ZERO, &mut Vec::new());
        }
    }
    gw
}

/// One request through the client gateway, the way a host runs it — one
/// retained action buffer — from submit to the give-up timer that forgets
/// it: a read is selected, transmitted after the selection overhead and
/// answered by its first target; an update is multicast and acknowledged.
fn run_client_op(gw: &mut ClientGateway, op: Op, seq: u64, actions: &mut Vec<ClientAction>) {
    let t0 = SimTime::from_micros(seq * 20_000_000);
    let at = |ms: u64| t0 + SimDuration::from_millis(ms);
    actions.clear();
    let (id, replier) = match op {
        Op::Read => {
            let qos = QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos");
            let id = gw.submit_read(Operation::new("get", Vec::new()), qos, t0, actions);
            actions.clear();
            gw.on_timer(id, TimerPurpose::Transmit, 1, at(1), actions);
            let Some(ClientAction::SendDirect { to, .. }) = actions.first() else {
                panic!("a transmitted read goes somewhere");
            };
            (id, *to)
        }
        Op::Update => {
            let op = Operation::new("set", b"value".to_vec());
            (gw.submit_update(op, t0, actions), ActorId::from_index(1))
        }
    };
    actions.clear();
    let reply = Reply {
        id,
        result: Default::default(),
        t1_us: 3_000,
        staleness: 0,
        deferred: false,
        csn: seq,
        vector: Vec::new(),
    };
    gw.on_payload(replier, Payload::Reply(reply), at(6), actions);
    assert!(matches!(actions.last(), Some(ClientAction::Completed(i)) if i.timely));
    actions.clear();
    gw.on_timer(id, TimerPurpose::GiveUp, 1, at(10_001), actions);
}

/// Replicas of the warm-windows gate: four primaries and six secondaries,
/// as in the paper's validation runs (the sequencer, id 0, reports none).
const WARM_REPLICAS: [usize; 10] = [1, 2, 3, 4, 100, 101, 102, 103, 104, 105];

/// Replica `k`'s `n`-th service-time sample: 100–290 ms, so against the
/// 200 ms deadline every replica's `F^I` sits strictly between 0 and 1 and
/// the scan visits several of them.
fn warm_perf(k: usize, n: u64) -> Payload {
    Payload::Perf(PerfBroadcast {
        read: Some(ReadMeasurement {
            ts_us: 100_000 + 10_000 * ((7 * k as u64 + 13 * n) % 20),
            tq_us: 1_000 * (n % 3),
            tb_us: 0,
        }),
        publisher: None,
    })
}

/// A client gateway over [`WARM_REPLICAS`] whose windows (20) are full.
fn warm_windows_gateway() -> ClientGateway {
    let config = ClientConfig {
        recovery: RecoveryPolicy::disabled(),
        ..ClientConfig::default()
    };
    let (primaries, secondaries) = (primary_view(4), secondary_view(6));
    let mut gw = ClientGateway::new(ActorId::from_index(CLIENT), primaries, secondaries, config);
    for (k, &replica) in WARM_REPLICAS.iter().enumerate() {
        for n in 0..20 {
            let perf = warm_perf(k, n);
            gw.on_payload(
                ActorId::from_index(replica),
                perf,
                SimTime::ZERO,
                &mut Vec::new(),
            );
        }
    }
    gw
}

/// One perf broadcast from every replica, so every window moved since the
/// previous read, then one read through its lifecycle.
fn run_warm_windows_read(gw: &mut ClientGateway, seq: u64, actions: &mut Vec<ClientAction>) {
    let now = SimTime::from_micros(seq * 20_000_000);
    for (k, &replica) in WARM_REPLICAS.iter().enumerate() {
        actions.clear();
        gw.on_payload(
            ActorId::from_index(replica),
            warm_perf(k, 20 + seq),
            now,
            actions,
        );
    }
    run_client_op(gw, Op::Read, seq, actions);
}

fn client_gates(failures: &mut Vec<String>) {
    /// Measured: 5.00 and 2.00 per request (an update's two are this
    /// bench's own `Operation`; a read's were 6.00 while an empty `Bytes`
    /// allocated its `Rc` counts).
    const CLIENT_OPS: [(&str, Op, f64); 2] = [
        ("read_lifecycle", Op::Read, 5.5),
        ("update_lifecycle", Op::Update, 2.5),
    ];
    for (op_name, op, ceiling) in CLIENT_OPS {
        let mut gw = client_gateway();
        let mut actions = Vec::new();
        let allocs = allocs_warm(|seq| run_client_op(&mut gw, op, seq, &mut actions));
        gate(
            failures,
            &format!("client/{op_name}"),
            allocs,
            REQUESTS,
            "op",
            ceiling,
        );
    }
    /// Measured: 6.00 per read (7.00 while an empty `Bytes` allocated its
    /// `Rc` counts). Before the response-time model counted over sorted
    /// windows it was 67.00: every evaluated replica's windows had moved,
    /// so each evaluation rebuilt and allocated its `S⊛W` pmf.
    const WARM_WINDOWS_CEILING: f64 = 6.5;
    let mut gw = warm_windows_gateway();
    let mut actions = Vec::new();
    let allocs = allocs_warm(|seq| run_warm_windows_read(&mut gw, seq, &mut actions));
    gate(
        failures,
        "client/read_warm_windows",
        allocs,
        REQUESTS,
        "read",
        WARM_WINDOWS_CEILING,
    );
}

fn main() {
    let mut failures = Vec::new();
    world_gates(&mut failures);
    envelope_gate(&mut failures);
    server_gates(&mut failures);
    client_gates(&mut failures);
    assert!(
        failures.is_empty(),
        "allocation ceilings exceeded: {failures:?}"
    );
}
