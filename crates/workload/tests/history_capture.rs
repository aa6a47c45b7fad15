//! The per-request history the chaos oracles judge, read off a run's trace
//! and pinned: what each request asked, when, and how it resolved. Capture
//! must not perturb the simulation, and the history of five faulty,
//! overloaded and durable scenarios must hash to one pinned value.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aqf_core::{OrderingGuarantee, QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf_obs::Event;
use aqf_sim::{Digest, SimDuration, SimTime};
use aqf_workload::{
    run_scenario, run_scenario_observed, world_bench_config, ClientSpec, FaultEvent, FaultKind,
    FaultTarget, ObjectKind, ObsHandle, OpPattern, ScenarioConfig,
};

/// One request: what was asked and when, then how it resolved. The fields
/// are read through `Debug`, the rendering the pinned hash covers.
#[allow(dead_code)]
#[derive(Debug, Default)]
struct Request {
    issued_us: u64,
    read: bool,
    method: String,
    arg: Vec<u8>,
    resolved_us: Option<u64>,
    result: Vec<u8>,
    timely: bool,
    deferred: bool,
    staleness: u64,
    timed_out: bool,
    shed: bool,
    degraded: bool,
    csn: u64,
    vector: Vec<(u64, u64)>,
}

/// Runs `config` traced; returns the run's digest and every request the
/// trace shows, keyed by `(client, seq)`: its `request_issued` joined to
/// the event that resolved it.
fn capture(config: &ScenarioConfig) -> (u64, BTreeMap<(u64, u64), Request>) {
    let obs = ObsHandle::enabled();
    let metrics = run_scenario_observed(config, &obs);
    let mut requests = BTreeMap::new();
    for record in obs.take_report().expect("enabled handle").records {
        let Some(req) = record.event.req() else {
            continue;
        };
        let r: &mut Request = requests
            .entry((req.client.index() as u64, req.seq))
            .or_default();
        let resolved_us = Some(record.t_us);
        *r = match record.event {
            Event::RequestIssued {
                read, method, arg, ..
            } => Request {
                issued_us: record.t_us,
                read,
                method: method.to_owned(),
                arg,
                ..Request::default()
            },
            Event::Delivered {
                timely,
                deferred,
                staleness,
                degraded,
                csn,
                vector,
                result,
                ..
            } => Request {
                resolved_us,
                result,
                timely,
                deferred,
                staleness,
                degraded,
                csn,
                vector: vector.iter().map(|&(a, n)| (a.index() as u64, n)).collect(),
                ..std::mem::take(r)
            },
            Event::GaveUp { degraded, .. } => Request {
                resolved_us,
                timed_out: true,
                degraded,
                ..std::mem::take(r)
            },
            // The gateway sheds locally only past the ladder's last rung.
            Event::LocalShed { .. } => Request {
                resolved_us,
                shed: true,
                degraded: true,
                ..std::mem::take(r)
            },
            _ => continue,
        };
    }
    (metrics.digest(), requests)
}

/// `tests/gateway_golden.rs`'s traced cell — protective overload at ~4x the
/// paper's load, durable storage, a primary crash/restart — at a think time
/// of `think_ms` (250 there; at 100 the degradation ladder runs out and
/// reads are shed locally).
fn traced_cell(
    ordering: OrderingGuarantee,
    object: ObjectKind,
    seed: u64,
    think_ms: u64,
) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed)
        .with_fast_detection()
        .with_durability();
    config.ordering = ordering;
    config.object = object;
    config.overload = true;
    config.recovery = RecoveryPolicy::default();
    config.clients = (0..8)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid qos"),
            request_delay: SimDuration::from_millis(think_ms),
            total_requests: 60,
            pattern: if i < 6 {
                OpPattern::ReadFraction(0.8)
            } else {
                OpPattern::WriteBurst(48)
            },
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(50 * i as u64),
        })
        .collect();
    config.faults = [(8, FaultKind::Crash), (12, FaultKind::Restart)]
        .map(|(at, kind)| FaultEvent {
            at: SimTime::from_secs(at),
            target: FaultTarget::Primary(0),
            kind,
        })
        .to_vec();
    config
}

/// Capture is write-only: the 16-actor faulty golden scenario produces the
/// identical metrics digest whether or not it is captured.
#[test]
fn recording_never_steers_the_golden_scenario() {
    let config = world_bench_config(16, true);
    let (captured, requests) = capture(&config);
    assert_eq!(run_scenario(&config).digest(), captured);
    assert!(requests.values().any(|r| r.resolved_us.is_some()));
}

/// The history of the three traced cells, one at 100 ms think time and the
/// 16-actor faulty world, one line per request in `(client, seq)` order,
/// hashes to the pinned value; the scenarios resolve requests every way.
#[test]
fn captured_history_is_pinned() {
    use {ObjectKind as K, OrderingGuarantee as O};
    let mut rendered = String::new();
    let mut all = Vec::new();
    for config in [
        traced_cell(O::Sequential, K::Register, 61, 250),
        traced_cell(O::Causal, K::Document, 62, 250),
        traced_cell(O::Fifo, K::Bank, 63, 250),
        traced_cell(O::Sequential, K::Register, 61, 100),
        world_bench_config(16, true),
    ] {
        for ((client, seq), request) in capture(&config).1 {
            writeln!(rendered, "{client} {seq} {request:?}").unwrap();
            all.push(request);
        }
    }
    let seen = |what: &str, pred: fn(&Request) -> bool| {
        assert!(all.iter().any(pred), "no {what} in the scenarios");
    };
    seen("give-up", |r| r.timed_out && !r.degraded);
    seen("degraded give-up", |r| r.timed_out && r.degraded);
    seen("local shed", |r| r.shed);
    seen("degraded read", |r| r.read && r.degraded && !r.shed);
    seen("deferred read", |r| r.read && r.deferred);
    seen("causal vector", |r| !r.vector.is_empty());
    let mut d = Digest::new();
    for byte in rendered.bytes() {
        d.mix(u64::from(byte));
    }
    assert_eq!(d.value(), HISTORY_HASH, "captured history moved");
}

const HISTORY_HASH: u64 = 0x08ba_ca60_cbb4_23c4;
