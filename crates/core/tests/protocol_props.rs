//! Property-based tests over the protocol state machines: random event
//! interleavings must never violate the sequential-consistency and
//! selection-model invariants.

use aqf_core::model::{
    pk_probability, select_on_demand, select_replicas, select_replicas_ordered, Candidate,
    CandidateKey, CandidateOrder, CandidateSource, Selection,
};
use aqf_core::monitor::WINDOW_SIZE;
use aqf_core::object::VersionedRegister;
use aqf_core::protocol::{drive_service, ServerProtocol};
use aqf_core::shell::{ServerAction, ServerConfig};
use aqf_core::wire::{
    CausalStamp, Method, Operation, Payload, PerfBroadcast, ReadMeasurement, RequestId,
    UpdateRequest, PRIMARY_GROUP, SECONDARY_GROUP,
};
use aqf_core::{
    CausalServerGateway, ClientAction, ClientConfig, ClientGateway, FifoServerGateway,
    InfoRepository, OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy, Selector,
    ServerGateway, TimerPurpose,
};
use aqf_group::{View, ViewId};
use aqf_sim::{ActorId, SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn a(i: usize) -> ActorId {
    ActorId::from_index(i)
}

fn views() -> (View, View) {
    (
        View::new(PRIMARY_GROUP, ViewId(0), vec![a(0), a(1), a(2)]),
        View::new(SECONDARY_GROUP, ViewId(0), vec![a(10), a(11)]),
    )
}

fn primary() -> ServerGateway {
    let (p, s) = views();
    ServerGateway::new(
        a(1),
        p,
        s,
        Box::new(VersionedRegister::new()),
        ServerConfig {
            clients: vec![a(20)],
            ..ServerConfig::default()
        },
    )
}

/// Drains StartService actions synchronously with a fixed 1 ms service
/// time; follow-up actions land in the same buffer.
fn drain(gw: &mut dyn ServerProtocol, actions: &mut Vec<ServerAction>, now: SimTime) {
    drive_service(gw, actions, now, SimDuration::from_millis(1));
}

fn update_payload(i: u64, attempt: u32) -> Payload {
    let update = UpdateRequest {
        id: RequestId {
            client: a(20),
            seq: i,
        },
        op: Operation::new(Method::Set, format!("v{i}").into_bytes()),
        attempt,
    };
    Payload::Update(update, None)
}

/// A pre-evaluated slice that counts what the selection asks for.
struct Recording<'a> {
    candidates: &'a [Candidate],
    immediate_pulls: Vec<u32>,
    deferred_pulls: Vec<u32>,
}

impl<'a> Recording<'a> {
    fn new(candidates: &'a [Candidate]) -> Self {
        Self {
            candidates,
            immediate_pulls: vec![0; candidates.len()],
            deferred_pulls: vec![0; candidates.len()],
        }
    }
}

impl CandidateSource for Recording<'_> {
    fn count(&self) -> usize {
        self.candidates.len()
    }

    fn key(&self, index: usize) -> CandidateKey {
        self.candidates[index].key()
    }

    fn immediate_cdf(&mut self, index: usize) -> f64 {
        self.immediate_pulls[index] += 1;
        self.candidates[index].immediate_cdf
    }

    fn deferred_cdf(&mut self, index: usize) -> f64 {
        self.deferred_pulls[index] += 1;
        self.candidates[index].deferred_cdf
    }
}

/// Algorithm 1 the way the seed wrote it — evaluate everyone, sort by the
/// full key, scan — kept here as the oracle for the demand-driven scan.
fn select_evaluating_everyone(
    candidates: &[Candidate],
    sf: f64,
    pc: f64,
    sequencer: Option<ActorId>,
    order: CandidateOrder,
) -> Selection {
    let mut sorted: Vec<&Candidate> = candidates.iter().collect();
    sorted.sort_by(|x, y| {
        let by_ert = match order {
            CandidateOrder::LeastRecentlyUsed => y.ert_us.cmp(&x.ert_us),
            CandidateOrder::CdfDescending => std::cmp::Ordering::Equal,
        };
        by_ert
            .then(y.immediate_cdf.total_cmp(&x.immediate_cdf))
            .then(x.id.cmp(&y.id))
    });
    // Products of Eq. 2 and Eq. 3, folded in visit order.
    let (mut prim, mut sec_i, mut sec_d) = (1.0f64, 1.0f64, 1.0f64);
    let predicted =
        |prim: f64, sec_i: f64, sec_d: f64| 1.0 - prim * (sec_i * sf + sec_d * (1.0 - sf));
    let mut replicas = Vec::new();
    let mut best: Option<&Candidate> = None;
    for c in sorted {
        replicas.push(c.id);
        let folded = match best {
            None => {
                best = Some(c);
                continue;
            }
            Some(b) if c.immediate_cdf > b.immediate_cdf => {
                best = Some(c);
                b
            }
            Some(_) => c,
        };
        if folded.is_primary {
            prim *= 1.0 - folded.immediate_cdf;
        } else {
            sec_i *= 1.0 - folded.immediate_cdf;
            sec_d *= 1.0 - folded.deferred_cdf;
        }
        if predicted(prim, sec_i, sec_d) >= pc {
            break;
        }
    }
    let predicted = predicted(prim, sec_i, sec_d);
    let satisfied = !replicas.is_empty() && predicted >= pc;
    replicas.extend(sequencer);
    Selection {
        replicas,
        predicted,
        satisfied,
    }
}

/// Candidates decoded from small classes so that ties are the rule: `ert`
/// equal at `u64::MAX` (never heard from — the warm-up case), equal at a
/// finite value, or one of a few nearby values; CDFs duplicated and zero.
fn tied_candidates(raw: &[(u8, u8, u8, bool)]) -> Vec<Candidate> {
    const CDF: [f64; 6] = [0.0, 0.0, 0.3, 0.3, 0.7, 0.95];
    raw.iter()
        .enumerate()
        .map(|(i, &(ert, fi, fd, is_primary))| Candidate {
            id: a(i + 1),
            is_primary,
            immediate_cdf: CDF[fi as usize],
            deferred_cdf: if is_primary {
                0.0
            } else {
                CDF[fd as usize].min(CDF[fi as usize])
            },
            ert_us: match ert {
                0 | 1 => u64::MAX,
                2 | 3 => 5_000,
                c => 10_000 + 1_000 * c as u64 + 37 * (i as u64 % 3),
            },
        })
        .collect()
}

fn assert_same_selection(actual: &Selection, expected: &Selection) {
    assert_eq!(actual.replicas, expected.replicas);
    assert_eq!(actual.predicted.to_bits(), expected.predicted.to_bits());
    assert_eq!(actual.satisfied, expected.satisfied);
}

/// Drives `steps` random callbacks (submit, armed and spurious timers,
/// replies, `Busy`, perf broadcasts, view changes) into a gateway with
/// recovery and overload protection off, and checks that the layers are
/// not there: no layer timer, no `Degrade`, a spurious layer timer or a
/// `Busy` acts on nothing, no layer counter off zero.
fn assert_disabled_layers_inert(ordering: OrderingGuarantee, seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let primaries = View::new(PRIMARY_GROUP, ViewId(0), (0..4).map(a).collect());
    let secondaries = View::new(SECONDARY_GROUP, ViewId(0), (10..14).map(a).collect());
    let config = ClientConfig {
        seed,
        ordering,
        recovery: RecoveryPolicy::disabled(),
        ..ClientConfig::default()
    };
    let mut gateway = ClientGateway::new(a(20), primaries, secondaries, config);

    let replicas: Vec<ActorId> = (0..4).chain(10..14).map(a).collect();
    let mut now = SimTime::ZERO;
    let mut armed: Vec<(SimTime, RequestId, TimerPurpose, u32)> = Vec::new();
    let mut submitted = 0u64;
    let mut view_ids = [0u64; 2];
    let mut out = Vec::new();
    for _ in 0..steps {
        now += SimDuration::from_micros(rng.gen_range(0..30_000));
        let some_request = |rng: &mut SmallRng| RequestId {
            client: a(20),
            seq: rng.gen_range(0..submitted + 2),
        };
        let from = replicas[rng.gen_range(0..replicas.len())];
        let step = rng.gen_range(0..12);
        match step {
            0..=2 => {
                let qos = QosSpec::new(
                    rng.gen_range(0..4),
                    SimDuration::from_millis(rng.gen_range(20..300)),
                    rng.gen_range(0.05..0.99),
                )
                .unwrap();
                gateway.submit_read(get_op(), qos, now, &mut out);
                submitted += 1;
            }
            3 => {
                gateway.submit_update(get_op(), now, &mut out);
                submitted += 1;
            }
            4..=6 if !armed.is_empty() => {
                let (due, req, purpose, attempt) = armed.remove(rng.gen_range(0..armed.len()));
                now = now.max(due);
                gateway.on_timer(req, purpose, attempt, now, &mut out);
            }
            7 => {
                // A timer of a layer that is off, for a request that may
                // or may not exist.
                let req = some_request(&mut rng);
                let purpose =
                    [TimerPurpose::Retry, TimerPurpose::Backoff][rng.gen_range(0..2usize)];
                gateway.on_timer(req, purpose, 1, now, &mut out);
                assert!(out.is_empty(), "{purpose:?} timer acted: {out:?}");
            }
            8 => {
                let reply = aqf_core::wire::Reply {
                    id: some_request(&mut rng),
                    result: Default::default(),
                    t1_us: rng.gen_range(0..20_000),
                    staleness: rng.gen_range(0..3),
                    deferred: rng.gen_bool(0.3),
                    csn: rng.gen_range(0..50),
                    vector: (0..rng.gen_range(0..3))
                        .map(|k| (a(20 + k), rng.gen_range(0..9)))
                        .collect(),
                };
                gateway.on_payload(from, Payload::Reply(reply), now, &mut out);
            }
            9 => {
                let req = some_request(&mut rng);
                gateway.on_payload(from, Payload::Busy { req }, now, &mut out);
                assert!(out.is_empty(), "Busy acted: {out:?}");
            }
            10 => {
                let perf = PerfBroadcast {
                    read: Some(ReadMeasurement {
                        ts_us: rng.gen_range(1_000..400_000),
                        tq_us: rng.gen_range(0..5_000),
                        tb_us: if rng.gen_bool(0.3) { 100_000 } else { 0 },
                    }),
                    publisher: rng.gen_bool(0.3).then(|| aqf_core::wire::PublisherInfo {
                        n_u: rng.gen_range(0..5),
                        t_u: SimDuration::from_millis(rng.gen_range(1..2_000)),
                        n_l: rng.gen_range(0..5),
                        t_l: SimDuration::from_millis(rng.gen_range(0..2_000)),
                        period: SimDuration::from_secs(2),
                    }),
                };
                gateway.on_payload(from, Payload::Perf(perf), now, &mut out);
            }
            _ => {
                // Replica `3` (or `13`) leaves and rejoins, view by view.
                let g = rng.gen_range(0..2usize);
                view_ids[g] += 1;
                let (group, base) = [(PRIMARY_GROUP, 0), (SECONDARY_GROUP, 10)][g];
                let size = 4 - (view_ids[g] % 2) as usize;
                let members = (base..base + size).map(a).collect();
                let view = std::rc::Rc::new(View::new(group, ViewId(view_ids[g]), members));
                gateway.on_view(view, now, &mut out);
            }
        }
        for action in out.drain(..) {
            match action {
                ClientAction::ArmTimer {
                    req,
                    purpose,
                    attempt,
                    after,
                } => {
                    assert!(
                        matches!(
                            purpose,
                            TimerPurpose::Transmit | TimerPurpose::Deadline | TimerPurpose::GiveUp
                        ),
                        "a disabled layer armed a {purpose:?} timer"
                    );
                    armed.push((now + after, req, purpose, attempt));
                }
                ClientAction::Degrade { .. } => panic!("a disabled ladder moved"),
                _ => {}
            }
        }
    }
    let stats = gateway.stats();
    assert_eq!(gateway.degrade_level(), 0);
    let layer_counters = [
        stats.retries,
        stats.quarantines,
        stats.busy_rejections,
        stats.local_sheds,
        stats.admission_reevals,
        stats.admission_rejects,
        stats.degrade_transitions,
    ];
    assert_eq!(layer_counters, [0; 7], "{stats:?}");
}

fn get_op() -> Operation {
    Operation::new(Method::Get, Vec::new())
}

proptest! {
    /// Feed a primary replica a random interleaving of update bodies and
    /// GSN assignments (each body and each assignment exactly once, in any
    /// relative order): the replica must end fully committed, having
    /// applied every update exactly once, in GSN order.
    #[test]
    fn commits_in_gsn_order_under_any_interleaving(
        n in 1usize..12,
        seed in 0u64..500,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        // Event stream: (is_assignment, index).
        let mut events: Vec<(bool, u64)> = (0..n as u64)
            .flat_map(|i| [(false, i), (true, i)])
            .collect();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        events.shuffle(&mut rng);

        let mut gw = primary();
        let mut actions = Vec::new();
        let mut csn_trace = Vec::new();
        for (step, (is_assign, i)) in events.into_iter().enumerate() {
            let now = SimTime::from_millis(step as u64);
            let payload = if is_assign {
                Payload::GsnAssign {
                    req: RequestId { client: a(20), seq: i },
                    gsn: i + 1,
                }
            } else {
                update_payload(i, 1)
            };
            gw.on_payload(a(0), payload, now, &mut actions);
            csn_trace.push(gw.csn());
        }
        drain(&mut gw, &mut actions, SimTime::from_secs(1));

        // CSN is monotone and ends at n.
        prop_assert!(csn_trace.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(gw.csn(), n as u64);
        prop_assert_eq!(gw.applied_csn(), n as u64);
        prop_assert_eq!(gw.stats().updates_committed, n as u64);
        prop_assert_eq!(gw.stats().gsn_conflicts, 0);
    }

    /// Two primaries fed the same updates/assignments in *different* orders
    /// converge to identical object state.
    #[test]
    fn replicas_converge_regardless_of_delivery_order(
        n in 1usize..10,
        seed_a in 0u64..200,
        seed_b in 200u64..400,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let run = |seed: u64| {
            let mut events: Vec<(bool, u64)> = (0..n as u64)
                .flat_map(|i| [(false, i), (true, i)])
                .collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            events.shuffle(&mut rng);
            let mut gw = primary();
            let mut actions = Vec::new();
            for (step, (is_assign, i)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let payload = if is_assign {
                    Payload::GsnAssign { req: RequestId { client: a(20), seq: i }, gsn: i + 1 }
                } else {
                    update_payload(i, 1)
                };
                gw.on_payload(a(0), payload, now, &mut actions);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            gw.object().snapshot()
        };
        prop_assert_eq!(run(seed_a), run(seed_b));
    }

    /// The single-failure proposal (paper §5.3): whenever Algorithm 1
    /// reports a satisfied selection, removing the selected member with the
    /// highest immediate CDF still leaves P_K(d) >= Pc(d).
    #[test]
    fn satisfied_selection_tolerates_best_member_crash(
        cdfs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, any::<bool>(), 0u64..1000), 1..12),
        sf in 0.0f64..=1.0,
        pc in 0.05f64..0.95,
    ) {
        let candidates: Vec<Candidate> = cdfs
            .iter()
            .enumerate()
            .map(|(i, &(fi, fd, is_primary, ert))| Candidate {
                id: a(i + 1),
                is_primary,
                immediate_cdf: fi,
                deferred_cdf: if is_primary { 0.0 } else { fd },
                ert_us: ert,
            })
            .collect();
        let sel = select_replicas(&candidates, sf, pc, Some(a(0)));
        if sel.satisfied {
            let selected: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| sel.replicas.contains(&c.id))
                .collect();
            let best = selected
                .iter()
                .max_by(|x, y| x.immediate_cdf.total_cmp(&y.immediate_cdf))
                .map(|c| c.id);
            let prims: Vec<f64> = selected
                .iter()
                .filter(|c| c.is_primary && Some(c.id) != best)
                .map(|c| c.immediate_cdf)
                .collect();
            let secs: Vec<(f64, f64)> = selected
                .iter()
                .filter(|c| !c.is_primary && Some(c.id) != best)
                .map(|c| (c.immediate_cdf, c.deferred_cdf))
                .collect();
            let survivors = pk_probability(&prims, &secs, sf);
            prop_assert!(
                survivors >= pc - 1e-9,
                "selection satisfied at {} but survivors only reach {survivors}",
                sel.predicted
            );
        }
    }

    /// Selection never returns duplicates and always includes the
    /// sequencer when one is supplied.
    #[test]
    fn selection_set_is_well_formed(
        cdfs in proptest::collection::vec((0.0f64..1.0, any::<bool>(), 0u64..1000), 0..12),
        sf in 0.0f64..=1.0,
        pc in 0.0f64..1.0,
    ) {
        let candidates: Vec<Candidate> = cdfs
            .iter()
            .enumerate()
            .map(|(i, &(fi, is_primary, ert))| Candidate {
                id: a(i + 1),
                is_primary,
                immediate_cdf: fi,
                deferred_cdf: 0.0,
                ert_us: ert,
            })
            .collect();
        let sel = select_replicas(&candidates, sf, pc, Some(a(0)));
        prop_assert!(sel.replicas.contains(&a(0)));
        let mut sorted = sel.replicas.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sel.replicas.len(), "no duplicates");
        prop_assert!(sel.replicas.len() <= candidates.len() + 1);
    }

    /// F^D(d) <= F^I(d): a deferred read can never be predicted *more*
    /// likely to make a deadline than an immediate one, for any measurement
    /// history (U is non-negative).
    #[test]
    fn deferred_cdf_never_exceeds_immediate(
        samples in proptest::collection::vec((1_000u64..300_000, 0u64..50_000, 0u64..4_000_000), 1..24),
        d_ms in 1u64..5_000,
    ) {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let now = SimTime::from_secs(1);
        for &(ts, tq, tb) in &samples {
            repo.record_perf(
                a(1),
                &PerfBroadcast {
                    read: Some(ReadMeasurement { ts_us: ts, tq_us: tq, tb_us: tb }),
                    publisher: None,
                },
                now,
            );
        }
        let d = SimDuration::from_millis(d_ms);
        prop_assert!(repo.deferred_cdf(a(1), d) <= repo.immediate_cdf(a(1), d) + 1e-9);
    }

    /// At-least-once delivery is harmless for the sequential gateway:
    /// delivering every update payload a second time (the retransmitted
    /// copy lands at a random later point, while the replica may be in any
    /// pipeline phase for it) leaves the committed log, the applied CSN and
    /// the object state identical to exactly-once delivery, and every
    /// duplicate is answered from the reply cache.
    #[test]
    fn sequential_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::Rng;
        use rand::SeedableRng;

        let run = |dup: bool| {
            // First copies and GSN assignments interleave in seed order;
            // each duplicate (attempt 2) is inserted after its first copy.
            let mut events: Vec<(u8, u64)> = (0..n as u64)
                .flat_map(|i| [(0u8, i), (1, i)])
                .collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            if dup {
                for i in 0..n as u64 {
                    let first = events.iter().position(|&(k, j)| k == 0 && j == i).unwrap();
                    let at = rng.gen_range(first as u64 + 1..events.len() as u64 + 1) as usize;
                    events.insert(at, (2, i));
                }
            }
            let mut gw = primary();
            let mut actions = Vec::new();
            for (step, (kind, i)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let payload = match kind {
                    1 => Payload::GsnAssign { req: RequestId { client: a(20), seq: i }, gsn: i + 1 },
                    k => update_payload(i, if k == 2 { 2 } else { 1 }),
                };
                gw.on_payload(a(0), payload, now, &mut actions);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            let log: Vec<(u64, RequestId)> = gw.committed_log().collect();
            (gw.object().snapshot(), gw.applied_csn(), gw.stats().updates_committed, log,
             gw.stats().dedup_hits)
        };

        let once = run(false);
        let twice = run(true);
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1);
        prop_assert_eq!(once.2, twice.2, "no double-apply");
        prop_assert_eq!(once.3, twice.3, "committed log identical");
        prop_assert_eq!(once.4, 0);
        prop_assert_eq!(twice.4, n as u64, "every duplicate deduplicated");
    }

    /// Same property for the FIFO gateway: duplicates inserted after their
    /// first copy never re-enter the service queue, so the version counter
    /// and final state match exactly-once delivery.
    #[test]
    fn fifo_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::Rng;
        use rand::SeedableRng;

        let run = |dup: bool| {
            let mut events: Vec<(u64, u32)> = (0..n as u64).map(|i| (i, 1)).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            if dup {
                for i in 0..n as u64 {
                    let first = events.iter().position(|&(j, at)| j == i && at == 1).unwrap();
                    let at = rng.gen_range(first as u64 + 1..events.len() as u64 + 1) as usize;
                    events.insert(at, (i, 2));
                }
            }
            let (p, s) = views();
            let mut gw = FifoServerGateway::new(
                a(1),
                p,
                s,
                Box::new(VersionedRegister::new()),
                ServerConfig { clients: vec![a(20)], ..ServerConfig::default() },
            );
            let mut actions = Vec::new();
            for (step, (i, attempt)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                gw.on_payload(a(20), update_payload(i, attempt), now, &mut actions);
                drain(&mut gw, &mut actions, now);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            let log: Vec<RequestId> = gw.applied_log().collect();
            (gw.object().snapshot(), gw.version(), log, gw.stats().dedup_hits)
        };

        let once = run(false);
        let twice = run(true);
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1, "no double-apply");
        prop_assert_eq!(once.2, twice.2, "applied log identical");
        prop_assert_eq!(once.3, 0);
        prop_assert_eq!(twice.3, n as u64, "every duplicate deduplicated");
    }

    /// Same property for the causal gateway: a retransmitted causal update
    /// reuses its original `update_seq`/deps, so whether the duplicate
    /// lands while the original is waiting, in service, or applied, the
    /// version vector and object state match exactly-once delivery.
    #[test]
    fn causal_duplicate_deliveries_are_idempotent(
        n in 1usize..8,
        seed in 0u64..300,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;

        let run = |dup: bool, shuffle_seed: u64| {
            // One client issuing update_seq 0..n; deliveries arrive in any
            // order (the gateway buffers out-of-order arrivals), duplicates
            // anywhere in the stream.
            let mut events: Vec<(u64, u32)> = (0..n as u64).map(|i| (i, 1)).collect();
            if dup {
                events.extend((0..n as u64).map(|i| (i, 2)));
            }
            let mut rng = rand::rngs::SmallRng::seed_from_u64(shuffle_seed);
            events.shuffle(&mut rng);
            let (p, s) = views();
            let mut gw = CausalServerGateway::new(
                a(1),
                p,
                s,
                Box::new(VersionedRegister::new()),
                ServerConfig { clients: vec![a(20)], ..ServerConfig::default() },
            );
            let mut actions = Vec::new();
            for (step, (i, attempt)) in events.into_iter().enumerate() {
                let now = SimTime::from_millis(step as u64);
                let Payload::Update(update, _) = update_payload(i, attempt) else {
                    unreachable!()
                };
                let stamp = CausalStamp { update_seq: i, deps: Vec::new() };
                let payload = Payload::Update(update, Some(stamp));
                gw.on_payload(a(20), payload, now, &mut actions);
                drain(&mut gw, &mut actions, now);
            }
            drain(&mut gw, &mut actions, SimTime::from_secs(1));
            (gw.object().snapshot(), gw.version(), gw.vector_snapshot(), gw.stats().dedup_hits)
        };

        let once = run(false, seed);
        let twice = run(true, seed.wrapping_add(1));
        prop_assert_eq!(once.0, twice.0, "object state identical");
        prop_assert_eq!(once.1, twice.1, "no double-apply");
        prop_assert_eq!(once.2, twice.2, "version vector identical");
        prop_assert_eq!(once.3, 0);
        prop_assert_eq!(twice.3, n as u64, "every duplicate deduplicated");
    }

    /// The demand-driven scan selects exactly what evaluating everyone
    /// first selects — same replicas, same prediction to the bit — and
    /// pulls only what the scan reads: `F^I` at most once per candidate and
    /// never from a tie group the scan did not enter, `F^D` exactly once
    /// per secondary folded into the product and never for a primary or for
    /// the member that ended the scan excluded.
    #[test]
    fn on_demand_scan_matches_evaluating_everyone(
        raw in proptest::collection::vec((0u8..8, 0u8..6, 0u8..6, any::<bool>()), 2..=60),
        sf in 0.0f64..=1.0,
        // Reachable by a couple of good replicas, by most of them, by none.
        pc in [0.05f64, 0.6, 0.97, 0.999_999, 1.5],
    ) {
        let candidates = tied_candidates(&raw);
        for order in [CandidateOrder::LeastRecentlyUsed, CandidateOrder::CdfDescending] {
            let expected = select_evaluating_everyone(&candidates, sf, pc, Some(a(0)), order);
            let mut source = Recording::new(&candidates);
            let actual = select_on_demand(&mut source, sf, pc, Some(a(0)), order);
            assert_same_selection(&actual, &expected);
            assert_same_selection(
                &select_replicas_ordered(&candidates, sf, pc, Some(a(0)), order),
                &expected,
            );

            let visited = &actual.replicas[..actual.replicas.len() - 1];
            let by_id = |id: ActorId| candidates.iter().position(|c| c.id == id).unwrap();
            // The excluded member is only replaced by a strictly better
            // one, so it ends as the first visited of the largest `F^I`.
            let excluded = visited
                .iter()
                .map(|&id| by_id(id))
                .reduce(|best, i| {
                    if candidates[i].immediate_cdf > candidates[best].immediate_cdf { i } else { best }
                })
                .unwrap();
            for (i, c) in candidates.iter().enumerate() {
                prop_assert!(source.immediate_pulls[i] <= 1, "F^I pulled twice for {i}");
                let entered = order == CandidateOrder::CdfDescending
                    || visited.iter().any(|&id| candidates[by_id(id)].ert_us == c.ert_us);
                if !entered {
                    prop_assert_eq!(source.immediate_pulls[i], 0, "group of {} never entered", i);
                }
                let folded = visited.contains(&c.id) && !c.is_primary && i != excluded;
                prop_assert_eq!(source.deferred_pulls[i], folded as u32, "F^D pulls of {}", i);
            }
        }
    }

    /// Every policy reads the same values through a source as from the
    /// slice, and the baselines pull only the replicas they pick.
    #[test]
    fn policies_agree_between_slice_and_source(
        raw in proptest::collection::vec((0u8..8, 0u8..6, 0u8..6, any::<bool>()), 2..=60),
        sf in 0.0f64..=1.0,
        pc in [0.05f64, 0.6, 0.97, 1.5],
        seed in 0u64..1_000,
    ) {
        use rand::SeedableRng;

        let candidates = tied_candidates(&raw);
        for policy in [
            SelectionPolicy::Probabilistic,
            SelectionPolicy::GreedyCdf,
            SelectionPolicy::AllReplicas,
            SelectionPolicy::SingleRoundRobin,
            SelectionPolicy::RandomK(3),
        ] {
            let (mut eager, mut lazy) = (Selector::new(policy), Selector::new(policy));
            let mut eager_rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut lazy_rng = rand::rngs::SmallRng::seed_from_u64(seed);
            // Two rounds: the round-robin position carries over.
            for _ in 0..2 {
                let expected = eager.select(&candidates, sf, pc, Some(a(0)), &mut eager_rng);
                let mut source = Recording::new(&candidates);
                let actual = lazy.select_on_demand(&mut source, sf, pc, Some(a(0)), &mut lazy_rng);
                assert_same_selection(&actual, &expected);
                if matches!(policy, SelectionPolicy::Probabilistic | SelectionPolicy::GreedyCdf) {
                    continue;
                }
                // A baseline folds in everyone it picks: the prediction is
                // Eq. 1 over the picks, and nobody else is evaluated.
                let picked: Vec<&Candidate> = actual
                    .replicas
                    .iter()
                    .filter_map(|id| candidates.iter().find(|c| c.id == *id))
                    .collect();
                let prims: Vec<f64> = picked
                    .iter()
                    .filter(|c| c.is_primary)
                    .map(|c| c.immediate_cdf)
                    .collect();
                let secs: Vec<(f64, f64)> = picked
                    .iter()
                    .filter(|c| !c.is_primary)
                    .map(|c| (c.immediate_cdf, c.deferred_cdf))
                    .collect();
                prop_assert_eq!(
                    actual.predicted.to_bits(),
                    pk_probability(&prims, &secs, sf).to_bits()
                );
                for (i, c) in candidates.iter().enumerate() {
                    let is_picked = picked.iter().any(|p| p.id == c.id);
                    prop_assert_eq!(source.immediate_pulls[i], is_picked as u32);
                    prop_assert_eq!(source.deferred_pulls[i], (is_picked && !c.is_primary) as u32);
                }
            }
        }
    }

    /// Both repository CDFs are monotone in the deadline.
    #[test]
    fn repository_cdfs_monotone_in_deadline(
        samples in proptest::collection::vec((1_000u64..300_000, 0u64..50_000, 1u64..4_000_000), 1..16),
    ) {
        let mut repo = InfoRepository::new(WINDOW_SIZE);
        let now = SimTime::from_secs(1);
        for &(ts, tq, tb) in &samples {
            repo.record_perf(
                a(1),
                &PerfBroadcast {
                    read: Some(ReadMeasurement { ts_us: ts, tq_us: tq, tb_us: tb }),
                    publisher: None,
                },
                now,
            );
        }
        let mut prev_i = 0.0f64;
        let mut prev_d = 0.0f64;
        for ms in (0..6000).step_by(137) {
            let d = SimDuration::from_millis(ms);
            let ci = repo.immediate_cdf(a(1), d);
            let cd = repo.deferred_cdf(a(1), d);
            prop_assert!(ci + 1e-12 >= prev_i);
            prop_assert!(cd + 1e-12 >= prev_d);
            prev_i = ci;
            prev_d = cd;
        }
    }

    /// "Disabled is inert", pinned directly rather than through digests:
    /// with recovery and overload off, no other field of either config can
    /// change what the client gateway does, under any ordering.
    #[test]
    fn disabled_layers_are_inert(
        seed in 0u64..1_000_000,
        steps in 20usize..250,
    ) {
        for ordering in [
            OrderingGuarantee::Sequential,
            OrderingGuarantee::Fifo,
            OrderingGuarantee::Causal,
        ] {
            assert_disabled_layers_inert(ordering, seed, steps);
        }
    }
}

/// A warm client over ten replicas, two of which are enough for `Pc`: the
/// read evaluates the replicas the scan visits and nothing behind them.
#[test]
fn warm_read_evaluates_only_the_replicas_it_visits() {
    let primaries = View::new(PRIMARY_GROUP, ViewId(0), (0..=4).map(a).collect());
    let secondaries = View::new(SECONDARY_GROUP, ViewId(0), (10..16).map(a).collect());
    let mut c = ClientGateway::new(a(20), primaries, secondaries, ClientConfig::default());
    let qos = QosSpec::new(2, SimDuration::from_millis(200), 0.9).unwrap();
    let get = || Operation::new(Method::Get, Vec::new());
    let perf = |ts_us: u64| {
        let read = Some(ReadMeasurement {
            ts_us,
            tq_us: 500,
            tb_us: 30_000,
        });
        Payload::Perf(PerfBroadcast {
            read,
            publisher: None,
        })
    };

    // A cold read goes to everyone; the replies, 1 ms apart, give every
    // replica its own `ert` (least recently heard: a primary, a secondary,
    // a primary), and each then reports a history in which 7 reads of 10
    // make the deadline, on the immediate and on the deferred path.
    let sink = &mut Vec::new();
    let id = c.submit_read(get(), qos, SimTime::from_millis(0), sink);
    c.on_timer(id, TimerPurpose::Transmit, 1, SimTime::from_millis(1), sink);
    let replicas = [1, 10, 2, 3, 4, 11, 12, 13, 14, 15].map(a);
    for (k, &r) in replicas.iter().enumerate() {
        let reply = aqf_core::wire::Reply {
            id,
            result: Default::default(),
            t1_us: 10_000,
            staleness: 0,
            deferred: false,
            csn: 0,
            vector: Vec::new(),
        };
        c.on_payload(
            r,
            Payload::Reply(reply),
            SimTime::from_millis(20 + k as u64),
            sink,
        );
        for n in 0..10 {
            let ts_us = if n < 7 { 10_000 + 100 * n } else { 400_000 };
            c.on_payload(r, perf(ts_us), SimTime::from_millis(40), sink);
        }
    }

    let before = c.repository().cdf_evaluations();
    c.submit_read(get(), qos, SimTime::from_millis(1_000), sink);
    let selection = c.last_selection().unwrap();
    assert!(selection.satisfied);
    // The excluded best, the two that reach 1 − 0.3² ≥ 0.9, the sequencer.
    assert_eq!(selection.replicas, [1, 10, 2, 0].map(a));
    let after_read = c.repository().cdf_evaluations();
    // F^I of the three visited, F^D of the one secondary folded in; every
    // candidate used to cost a lookup per path (4 + 2 × 6 = 16).
    assert_eq!(after_read - before, 4);
}
