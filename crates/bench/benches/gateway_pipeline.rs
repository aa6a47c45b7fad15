//! Server-gateway pipeline cost: the protocol bookkeeping (not the
//! simulated service time) of committing updates at each discipline's
//! commit point and of admitting + servicing staleness-checked reads, for
//! all three ordering disciplines through the one replica shell.

use aqf_bench::primary_gateway;
use aqf_core::causal::Causal;
use aqf_core::fifo::Fifo;
use aqf_core::protocol::{drive_service, ServerProtocol};
use aqf_core::server::Sequential;
use aqf_core::shell::ServerAction;
use aqf_core::wire::{Operation, Payload, ReadRequest, RequestId, UpdateRequest};
use aqf_sim::{ActorId, SimDuration, SimTime};
use criterion::{criterion_group, Criterion};

const CLIENT: usize = 999;
const SEQUENCER: usize = 0;

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

const LEVELS: [(&str, Level); 3] = [
    ("sequential", Level::Sequential),
    ("causal", Level::Causal),
    ("fifo", Level::Fifo),
];

#[derive(Clone, Copy)]
enum Op {
    Update,
    Read,
}

const OPS: [(&str, Op); 2] = [
    ("update_commit_apply", Op::Update),
    ("read_admit_service", Op::Read),
];

impl Level {
    fn gateway(self) -> Box<dyn ServerProtocol> {
        match self {
            Level::Sequential => Box::new(primary_gateway::<Sequential>(1, 3, 4)),
            Level::Causal => Box::new(primary_gateway::<Causal>(1, 3, 4)),
            Level::Fifo => Box::new(primary_gateway::<Fifo>(1, 3, 4)),
        }
    }

    /// Delivers request `seq` (1-based, one client) in this discipline's
    /// wire dialect.
    fn deliver(
        self,
        gw: &mut dyn ServerProtocol,
        op: Op,
        seq: u64,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    ) {
        let (client, sequencer) = (ActorId::from_index(CLIENT), ActorId::from_index(SEQUENCER));
        match op {
            Op::Update => {
                let update = UpdateRequest {
                    id: request(seq),
                    op: Operation::new("set", b"value".to_vec()),
                    attempt: 1,
                };
                match self {
                    Level::Sequential => {
                        gw.on_payload(client, Payload::Update(update), now, out);
                        let assign = Payload::GsnAssign {
                            req: request(seq),
                            gsn: seq,
                        };
                        gw.on_payload(sequencer, assign, now, out);
                    }
                    Level::Causal => {
                        let update = Payload::CausalUpdate {
                            update,
                            update_seq: seq - 1,
                            deps: Vec::new(),
                        };
                        gw.on_payload(client, update, now, out);
                    }
                    Level::Fifo => gw.on_payload(client, Payload::Update(update), now, out),
                }
            }
            Op::Read => {
                let read = ReadRequest {
                    id: request(seq),
                    op: Operation::new("get", Vec::new()),
                    staleness_threshold: 2,
                    deadline_us: 0,
                    attempt: 1,
                };
                match self {
                    Level::Sequential => {
                        gw.on_payload(client, Payload::Read(read), now, out);
                        let snapshot = Payload::GsnSnapshot {
                            req: request(seq),
                            gsn: gw.gsn(),
                        };
                        gw.on_payload(sequencer, snapshot, now, out);
                    }
                    Level::Causal => {
                        let read = Payload::CausalRead {
                            read,
                            deps: Vec::new(),
                        };
                        gw.on_payload(client, read, now, out);
                    }
                    Level::Fifo => gw.on_payload(client, Payload::Read(read), now, out),
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

fn bench_gateway(c: &mut Criterion) {
    for (level_name, level) in LEVELS {
        for (op_name, op) in OPS {
            c.bench_function(&format!("gateway/{level_name}/{op_name}"), |b| {
                let mut seq = 0u64;
                let mut gw = level.gateway();
                let mut actions = Vec::new();
                b.iter(|| {
                    seq += 1;
                    run_op(level, &mut *gw, op, seq, &mut actions);
                    std::hint::black_box(gw.csn() + gw.stats().reads_served)
                })
            });
        }
    }
}

/// Asserts allocations-per-operation ceilings on the gateway hot path
/// (`--features alloc-counter`). The counts are exact, not timing, so each
/// ceiling sits less than one allocation above what was measured with the
/// retained reply scratch and the caller-owned action sink: one more
/// allocation per request — a per-callback action `Vec`, a roster clone
/// per perf broadcast, a reply buffer grown afresh — fails this gate.
#[cfg(feature = "alloc-counter")]
fn alloc_gates() {
    const REQUESTS: u64 = 10_000;
    /// `[update, read]` for sequential / causal / FIFO. Measured: 5.17 and
    /// 3.00 per op (7.17 and 6.00 before the sink), causal updates 7.17
    /// (the admitted copy of the request and the reply's vector stamp).
    const CEILINGS: [[f64; 2]; 3] = [[6.0, 3.5], [8.0, 3.5], [6.0, 3.5]];

    let mut failures = Vec::new();
    for ((level_name, level), ceilings) in LEVELS.into_iter().zip(CEILINGS) {
        for ((op_name, op), ceiling) in OPS.into_iter().zip(ceilings) {
            let mut gw = level.gateway();
            let mut actions = Vec::new();
            for seq in 1..=REQUESTS {
                run_op(level, &mut *gw, op, seq, &mut actions); // warm-up
            }
            let (allocs, ()) = aqf_bench::alloc_count::measure(|| {
                for seq in REQUESTS + 1..=2 * REQUESTS {
                    run_op(level, &mut *gw, op, seq, &mut actions);
                }
            });
            let per_op = allocs as f64 / REQUESTS as f64;
            let verdict = if per_op <= ceiling { "ok" } else { "FAIL" };
            println!(
                "gateway/allocs/{level_name}/{op_name}: {allocs} allocs / {REQUESTS} ops = \
                 {per_op:.2} per op (ceiling {ceiling}) {verdict}"
            );
            if per_op > ceiling {
                failures.push(format!("{level_name}/{op_name}: {per_op:.2} > {ceiling}"));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "allocation ceilings exceeded: {failures:?}"
    );
}

criterion_group!(benches, bench_gateway);

fn main() {
    benches();
    #[cfg(feature = "alloc-counter")]
    alloc_gates();
}
