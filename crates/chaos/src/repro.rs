//! Minimal-repro serialization: [`ScenarioConfig`] ⇄ JSON.
//!
//! A repro file is one JSON object carrying the *entire* scenario — not
//! just the fault schedule — so replaying it later needs no out-of-band
//! profile and survives changes to the search harness's defaults. Field
//! order is fixed and numbers use Rust's shortest round-trip formatting,
//! so serializing the same config always yields the same bytes and a
//! parse → serialize cycle is the identity on those bytes.
//!
//! Durations and instants are written in integer microseconds (the sim
//! clock's native unit); enums are tagged objects `{"t": "...", ...}`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use aqf_core::{
    DegradeStep, OrderingGuarantee, OverloadConfig, QosSpec, RecoveryPolicy, SelectionPolicy,
    StalenessModel, StorageConfig,
};
use aqf_group::{FailureDetector, FlapDamping, PhiAccrualConfig};
use aqf_obs::{parse_json, Json};
use aqf_sim::{DelayModel, SimDuration, SimTime};
use aqf_workload::{
    ClientSpec, FaultEvent, FaultKind, FaultTarget, ObjectKind, OpPattern, ScenarioConfig,
};

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// Serializes `config` as a single deterministic JSON object.
pub fn config_to_json(config: &ScenarioConfig) -> String {
    let mut s = String::with_capacity(2048);
    s.push('{');
    field_u64(&mut s, "seed", config.seed);
    field_u64(&mut s, "num_primaries", config.num_primaries as u64);
    field_u64(&mut s, "num_secondaries", config.num_secondaries as u64);
    field_u64(&mut s, "lazy_interval_us", config.lazy_interval.as_micros());
    field_u64(&mut s, "window_size", config.window_size as u64);
    match config.cdf_bin_us {
        Some(v) => field_u64(&mut s, "cdf_bin_us", v),
        None => field_raw(&mut s, "cdf_bin_us", "null"),
    }
    field_u64(
        &mut s,
        "selection_overhead_us",
        config.selection_overhead.as_micros(),
    );
    field_obj(&mut s, "service_delay", |s| {
        delay_model(s, &config.service_delay)
    });
    field_obj(&mut s, "link_delay", |s| delay_model(s, &config.link_delay));
    field_f64(&mut s, "loss_probability", config.loss_probability);
    field_f64(
        &mut s,
        "duplicate_probability",
        config.duplicate_probability,
    );
    field_obj(&mut s, "recovery", |s| recovery(s, &config.recovery));
    field_obj(&mut s, "overload", |s| overload(s, &config.overload));
    field_u64(&mut s, "group_tick_us", config.group_tick.as_micros());
    field_u64(
        &mut s,
        "failure_timeout_us",
        config.failure_timeout.as_micros(),
    );
    field_obj(&mut s, "detector", |s| detector(s, &config.detector));
    match &config.damping {
        Some(d) => field_obj(&mut s, "damping", |s| damping(s, d)),
        None => field_raw(&mut s, "damping", "null"),
    }
    field_u64(&mut s, "min_primary_size", config.min_primary_size as u64);
    field_str(&mut s, "object", object_kind(config.object));
    field_str(&mut s, "ordering", ordering(config.ordering));
    field_str(
        &mut s,
        "staleness_model",
        staleness_model(config.staleness_model),
    );
    field_obj(&mut s, "storage", |s| storage(s, &config.storage));
    field_arr(&mut s, "clients", config.clients.len(), |s, i| {
        client(s, &config.clients[i]);
    });
    field_arr(&mut s, "faults", config.faults.len(), |s, i| {
        fault(s, &config.faults[i]);
    });
    field_u64(&mut s, "run_limit_us", config.run_limit.as_micros());
    finish(&mut s);
    s
}

fn finish(s: &mut String) {
    debug_assert!(s.ends_with(','));
    s.pop();
    s.push('}');
}

fn field_key(s: &mut String, key: &str) {
    let _ = write!(s, "\"{key}\":");
}

fn field_u64(s: &mut String, key: &str, v: u64) {
    field_key(s, key);
    let _ = write!(s, "{v},");
}

fn field_f64(s: &mut String, key: &str, v: f64) {
    field_key(s, key);
    // Rust's shortest round-trip formatting; integral values print without
    // a dot and come back as UInt, which `get_f64` widens on parse.
    let _ = write!(s, "{v},");
}

fn field_bool(s: &mut String, key: &str, v: bool) {
    field_key(s, key);
    let _ = write!(s, "{v},");
}

fn field_str(s: &mut String, key: &str, v: &str) {
    field_key(s, key);
    let _ = write!(s, "\"{v}\",");
}

fn field_raw(s: &mut String, key: &str, raw: &str) {
    field_key(s, key);
    let _ = write!(s, "{raw},");
}

fn field_obj(s: &mut String, key: &str, body: impl FnOnce(&mut String)) {
    field_key(s, key);
    s.push('{');
    body(s);
    finish(s);
    s.push(',');
}

fn field_arr(s: &mut String, key: &str, len: usize, mut item: impl FnMut(&mut String, usize)) {
    field_key(s, key);
    s.push('[');
    for i in 0..len {
        if i > 0 {
            s.push(',');
        }
        s.push('{');
        item(s, i);
        finish(s);
    }
    s.push_str("],");
}

fn delay_model(s: &mut String, m: &DelayModel) {
    match m {
        DelayModel::Constant(d) => {
            field_str(s, "t", "constant");
            field_u64(s, "us", d.as_micros());
        }
        DelayModel::Uniform { lo, hi } => {
            field_str(s, "t", "uniform");
            field_u64(s, "lo_us", lo.as_micros());
            field_u64(s, "hi_us", hi.as_micros());
        }
        DelayModel::Normal {
            mean_us,
            std_us,
            min,
        } => {
            field_str(s, "t", "normal");
            field_f64(s, "mean_us", *mean_us);
            field_f64(s, "std_us", *std_us);
            field_u64(s, "min_us", min.as_micros());
        }
        DelayModel::Exponential { mean_us, min } => {
            field_str(s, "t", "exponential");
            field_f64(s, "mean_us", *mean_us);
            field_u64(s, "min_us", min.as_micros());
        }
        DelayModel::Empirical(samples) => {
            field_str(s, "t", "empirical");
            field_key(s, "us");
            s.push('[');
            for (i, d) in samples.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{}", d.as_micros());
            }
            s.push_str("],");
        }
    }
}

fn recovery(s: &mut String, r: &RecoveryPolicy) {
    field_bool(s, "enabled", r.enabled);
    field_u64(s, "max_attempts", r.max_attempts as u64);
    field_u64(s, "base_backoff_us", r.base_backoff.as_micros());
    field_u64(s, "max_backoff_us", r.max_backoff.as_micros());
    match r.hedge_fraction {
        Some(h) => field_f64(s, "hedge_fraction", h),
        None => field_raw(s, "hedge_fraction", "null"),
    }
    field_u64(s, "update_retry_after_us", r.update_retry_after.as_micros());
    field_u64(s, "quarantine_threshold", r.quarantine_threshold as u64);
    field_u64(s, "quarantine_base_us", r.quarantine_base.as_micros());
    field_u64(s, "quarantine_max_us", r.quarantine_max.as_micros());
}

fn overload(s: &mut String, o: &OverloadConfig) {
    field_bool(s, "enabled", o.enabled);
    field_u64(s, "queue_bound", o.queue_bound as u64);
    field_bool(s, "deadline_shedding", o.deadline_shedding);
    field_u64(s, "sequencer_watermark", o.sequencer_watermark as u64);
    field_u64(s, "breaker_threshold", o.breaker_threshold as u64);
    field_u64(s, "breaker_open_us", o.breaker_open.as_micros());
    field_u64(s, "probe_interval_us", o.probe_interval.as_micros());
    field_arr(s, "ladder", o.ladder.len(), |s, i| {
        field_u64(s, "widen_staleness", o.ladder[i].widen_staleness as u64);
        field_f64(s, "relax_probability", o.ladder[i].relax_probability);
    });
    field_u64(s, "recover_window", o.recover_window as u64);
    field_f64(s, "admission_headroom", o.admission_headroom);
}

fn detector(s: &mut String, d: &FailureDetector) {
    match d {
        FailureDetector::FixedTimeout => field_str(s, "t", "fixed_timeout"),
        FailureDetector::PhiAccrual(p) => {
            field_str(s, "t", "phi_accrual");
            field_f64(s, "threshold", p.threshold);
            field_u64(s, "window", p.window as u64);
            field_u64(s, "min_std_dev_us", p.min_std_dev.as_micros());
        }
    }
}

fn damping(s: &mut String, d: &FlapDamping) {
    field_u64(s, "base_hold_us", d.base_hold.as_micros());
    field_u64(s, "max_hold_us", d.max_hold.as_micros());
    field_u64(s, "forget_after_us", d.forget_after.as_micros());
}

fn storage(s: &mut String, c: &StorageConfig) {
    field_bool(s, "enabled", c.enabled);
    field_u64(s, "seed", c.seed);
    field_u64(s, "write_latency_us", c.write_latency_us);
    field_u64(s, "fsync_latency_us", c.fsync_latency_us);
    field_u64(s, "fsync_every", c.fsync_every);
    field_u64(s, "snapshot_every", c.snapshot_every);
    field_f64(s, "torn_write_probability", c.torn_write_probability);
    field_f64(s, "bit_flip_probability", c.bit_flip_probability);
    field_f64(s, "fsync_stall_probability", c.fsync_stall_probability);
    field_u64(s, "fsync_stall_us", c.fsync_stall_us);
    field_bool(s, "replay", c.replay);
}

fn client(s: &mut String, c: &ClientSpec) {
    field_obj(s, "qos", |s| {
        field_u64(s, "staleness_threshold", c.qos.staleness_threshold as u64);
        field_u64(s, "deadline_us", c.qos.deadline.as_micros());
        field_f64(s, "min_probability", c.qos.min_probability);
    });
    field_u64(s, "request_delay_us", c.request_delay.as_micros());
    field_u64(s, "total_requests", c.total_requests);
    field_obj(s, "pattern", |s| match c.pattern {
        OpPattern::AlternatingWriteRead => field_str(s, "t", "alternating_write_read"),
        OpPattern::ReadOnly => field_str(s, "t", "read_only"),
        OpPattern::WriteOnly => field_str(s, "t", "write_only"),
        OpPattern::ReadFraction(p) => {
            field_str(s, "t", "read_fraction");
            field_f64(s, "p", p);
        }
        OpPattern::WriteBurst(n) => {
            field_str(s, "t", "write_burst");
            field_u64(s, "n", n as u64);
        }
    });
    field_obj(s, "policy", |s| match c.policy {
        SelectionPolicy::Probabilistic => field_str(s, "t", "probabilistic"),
        SelectionPolicy::AllReplicas => field_str(s, "t", "all_replicas"),
        SelectionPolicy::SingleRoundRobin => field_str(s, "t", "single_round_robin"),
        SelectionPolicy::RandomK(k) => {
            field_str(s, "t", "random_k");
            field_u64(s, "k", k as u64);
        }
        SelectionPolicy::GreedyCdf => field_str(s, "t", "greedy_cdf"),
    });
    field_u64(s, "start_offset_us", c.start_offset.as_micros());
}

fn fault(s: &mut String, f: &FaultEvent) {
    field_u64(s, "at_us", f.at.as_micros());
    field_obj(s, "target", |s| fault_target(s, f.target));
    field_obj(s, "kind", |s| match f.kind {
        FaultKind::Crash => field_str(s, "t", "crash"),
        FaultKind::Restart => field_str(s, "t", "restart"),
        FaultKind::Isolate => field_str(s, "t", "isolate"),
        FaultKind::Reconnect => field_str(s, "t", "reconnect"),
        FaultKind::Degrade { factor } => {
            field_str(s, "t", "degrade");
            field_f64(s, "factor", factor);
        }
        FaultKind::Lossy { p } => {
            field_str(s, "t", "lossy");
            field_f64(s, "p", p);
        }
        FaultKind::RestoreGray => field_str(s, "t", "restore_gray"),
        FaultKind::CutLink { peer } => {
            field_str(s, "t", "cut_link");
            field_obj(s, "peer", |s| fault_target(s, peer));
        }
        FaultKind::HealLink { peer } => {
            field_str(s, "t", "heal_link");
            field_obj(s, "peer", |s| fault_target(s, peer));
        }
    });
}

fn fault_target(s: &mut String, t: FaultTarget) {
    match t {
        FaultTarget::Sequencer => field_str(s, "t", "sequencer"),
        FaultTarget::Publisher => field_str(s, "t", "publisher"),
        FaultTarget::Primary(i) => {
            field_str(s, "t", "primary");
            field_u64(s, "i", i as u64);
        }
        FaultTarget::Secondary(i) => {
            field_str(s, "t", "secondary");
            field_u64(s, "i", i as u64);
        }
        FaultTarget::AllPrimaries => field_str(s, "t", "all_primaries"),
        FaultTarget::AllServers => field_str(s, "t", "all_servers"),
    }
}

fn object_kind(o: ObjectKind) -> &'static str {
    match o {
        ObjectKind::Register => "register",
        ObjectKind::Document => "document",
        ObjectKind::Ticker => "ticker",
        ObjectKind::Bank => "bank",
    }
}

fn ordering(o: OrderingGuarantee) -> &'static str {
    match o {
        OrderingGuarantee::Sequential => "sequential",
        OrderingGuarantee::Causal => "causal",
        OrderingGuarantee::Fifo => "fifo",
    }
}

fn staleness_model(m: StalenessModel) -> &'static str {
    match m {
        StalenessModel::Poisson => "poisson",
        StalenessModel::EmpiricalRateMixture => "empirical_rate_mixture",
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

type Obj = BTreeMap<String, Json>;

/// Parses a scenario previously produced by [`config_to_json`].
pub fn config_from_json(text: &str) -> Result<ScenarioConfig, String> {
    let doc = parse_json(text)?;
    let o = doc.as_obj().ok_or("repro root is not an object")?;
    let config = ScenarioConfig {
        seed: get_u64(o, "seed")?,
        num_primaries: get_usize(o, "num_primaries")?,
        num_secondaries: get_usize(o, "num_secondaries")?,
        lazy_interval: get_duration(o, "lazy_interval_us")?,
        window_size: get_usize(o, "window_size")?,
        cdf_bin_us: match get(o, "cdf_bin_us")? {
            Json::Null => None,
            v => Some(v.as_u64().ok_or("cdf_bin_us is not an integer")?),
        },
        selection_overhead: get_duration(o, "selection_overhead_us")?,
        service_delay: parse_delay(get_obj(o, "service_delay")?)?,
        link_delay: parse_delay(get_obj(o, "link_delay")?)?,
        loss_probability: get_f64(o, "loss_probability")?,
        duplicate_probability: get_f64(o, "duplicate_probability")?,
        recovery: parse_recovery(get_obj(o, "recovery")?)?,
        overload: parse_overload(get_obj(o, "overload")?)?,
        group_tick: get_duration(o, "group_tick_us")?,
        failure_timeout: get_duration(o, "failure_timeout_us")?,
        detector: parse_detector(get_obj(o, "detector")?)?,
        damping: match get(o, "damping")? {
            Json::Null => None,
            v => {
                let d = v.as_obj().ok_or("damping is not an object")?;
                Some(FlapDamping {
                    base_hold: get_duration(d, "base_hold_us")?,
                    max_hold: get_duration(d, "max_hold_us")?,
                    forget_after: get_duration(d, "forget_after_us")?,
                })
            }
        },
        min_primary_size: get_usize(o, "min_primary_size")?,
        object: match get_str(o, "object")? {
            "register" => ObjectKind::Register,
            "document" => ObjectKind::Document,
            "ticker" => ObjectKind::Ticker,
            "bank" => ObjectKind::Bank,
            other => return Err(format!("unknown object kind {other:?}")),
        },
        ordering: match get_str(o, "ordering")? {
            "sequential" => OrderingGuarantee::Sequential,
            "causal" => OrderingGuarantee::Causal,
            "fifo" => OrderingGuarantee::Fifo,
            other => return Err(format!("unknown ordering {other:?}")),
        },
        staleness_model: match get_str(o, "staleness_model")? {
            "poisson" => StalenessModel::Poisson,
            "empirical_rate_mixture" => StalenessModel::EmpiricalRateMixture,
            other => return Err(format!("unknown staleness model {other:?}")),
        },
        storage: parse_storage(get_obj(o, "storage")?)?,
        clients: get_arr(o, "clients")?
            .iter()
            .map(|v| parse_client(v.as_obj().ok_or("client is not an object")?))
            .collect::<Result<_, _>>()?,
        faults: get_arr(o, "faults")?
            .iter()
            .map(|v| parse_fault(v.as_obj().ok_or("fault is not an object")?))
            .collect::<Result<_, _>>()?,
        run_limit: get_duration(o, "run_limit_us")?,
    };
    Ok(config)
}

fn get<'a>(o: &'a Obj, key: &str) -> Result<&'a Json, String> {
    o.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(o: &Obj, key: &str) -> Result<u64, String> {
    get(o, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an integer"))
}

fn get_usize(o: &Obj, key: &str) -> Result<usize, String> {
    Ok(get_u64(o, key)? as usize)
}

fn get_duration(o: &Obj, key: &str) -> Result<SimDuration, String> {
    Ok(SimDuration::from_micros(get_u64(o, key)?))
}

fn get_f64(o: &Obj, key: &str) -> Result<f64, String> {
    match get(o, key)? {
        Json::UInt(v) => Ok(*v as f64),
        Json::Float(v) => Ok(*v),
        _ => Err(format!("field {key:?} is not a number")),
    }
}

fn get_bool(o: &Obj, key: &str) -> Result<bool, String> {
    get(o, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn get_str<'a>(o: &'a Obj, key: &str) -> Result<&'a str, String> {
    get(o, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

fn get_obj<'a>(o: &'a Obj, key: &str) -> Result<&'a Obj, String> {
    get(o, key)?
        .as_obj()
        .ok_or_else(|| format!("field {key:?} is not an object"))
}

fn get_arr<'a>(o: &'a Obj, key: &str) -> Result<&'a [Json], String> {
    get(o, key)?
        .as_arr()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

fn parse_delay(o: &Obj) -> Result<DelayModel, String> {
    Ok(match get_str(o, "t")? {
        "constant" => DelayModel::Constant(get_duration(o, "us")?),
        "uniform" => DelayModel::Uniform {
            lo: get_duration(o, "lo_us")?,
            hi: get_duration(o, "hi_us")?,
        },
        "normal" => DelayModel::Normal {
            mean_us: get_f64(o, "mean_us")?,
            std_us: get_f64(o, "std_us")?,
            min: get_duration(o, "min_us")?,
        },
        "exponential" => DelayModel::Exponential {
            mean_us: get_f64(o, "mean_us")?,
            min: get_duration(o, "min_us")?,
        },
        "empirical" => DelayModel::Empirical(
            get_arr(o, "us")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .map(SimDuration::from_micros)
                        .ok_or_else(|| "empirical sample is not an integer".to_string())
                })
                .collect::<Result<_, _>>()?,
        ),
        other => return Err(format!("unknown delay model {other:?}")),
    })
}

fn parse_recovery(o: &Obj) -> Result<RecoveryPolicy, String> {
    Ok(RecoveryPolicy {
        enabled: get_bool(o, "enabled")?,
        max_attempts: get_u64(o, "max_attempts")? as u32,
        base_backoff: get_duration(o, "base_backoff_us")?,
        max_backoff: get_duration(o, "max_backoff_us")?,
        hedge_fraction: match get(o, "hedge_fraction")? {
            Json::Null => None,
            _ => Some(get_f64(o, "hedge_fraction")?),
        },
        update_retry_after: get_duration(o, "update_retry_after_us")?,
        quarantine_threshold: get_u64(o, "quarantine_threshold")? as u32,
        quarantine_base: get_duration(o, "quarantine_base_us")?,
        quarantine_max: get_duration(o, "quarantine_max_us")?,
    })
}

fn parse_overload(o: &Obj) -> Result<OverloadConfig, String> {
    Ok(OverloadConfig {
        enabled: get_bool(o, "enabled")?,
        queue_bound: get_usize(o, "queue_bound")?,
        deadline_shedding: get_bool(o, "deadline_shedding")?,
        sequencer_watermark: get_usize(o, "sequencer_watermark")?,
        breaker_threshold: get_u64(o, "breaker_threshold")? as u32,
        breaker_open: get_duration(o, "breaker_open_us")?,
        probe_interval: get_duration(o, "probe_interval_us")?,
        ladder: get_arr(o, "ladder")?
            .iter()
            .map(|v| {
                let step = v.as_obj().ok_or("ladder step is not an object")?;
                Ok::<_, String>(DegradeStep {
                    widen_staleness: get_u64(step, "widen_staleness")? as u32,
                    relax_probability: get_f64(step, "relax_probability")?,
                })
            })
            .collect::<Result<_, _>>()?,
        recover_window: get_u64(o, "recover_window")? as u32,
        admission_headroom: get_f64(o, "admission_headroom")?,
    })
}

fn parse_detector(o: &Obj) -> Result<FailureDetector, String> {
    Ok(match get_str(o, "t")? {
        "fixed_timeout" => FailureDetector::FixedTimeout,
        "phi_accrual" => FailureDetector::PhiAccrual(PhiAccrualConfig {
            threshold: get_f64(o, "threshold")?,
            window: get_usize(o, "window")?,
            min_std_dev: get_duration(o, "min_std_dev_us")?,
        }),
        other => return Err(format!("unknown detector {other:?}")),
    })
}

fn parse_storage(o: &Obj) -> Result<StorageConfig, String> {
    Ok(StorageConfig {
        enabled: get_bool(o, "enabled")?,
        seed: get_u64(o, "seed")?,
        write_latency_us: get_u64(o, "write_latency_us")?,
        fsync_latency_us: get_u64(o, "fsync_latency_us")?,
        fsync_every: get_u64(o, "fsync_every")?,
        snapshot_every: get_u64(o, "snapshot_every")?,
        torn_write_probability: get_f64(o, "torn_write_probability")?,
        bit_flip_probability: get_f64(o, "bit_flip_probability")?,
        fsync_stall_probability: get_f64(o, "fsync_stall_probability")?,
        fsync_stall_us: get_u64(o, "fsync_stall_us")?,
        replay: get_bool(o, "replay")?,
    })
}

fn parse_client(o: &Obj) -> Result<ClientSpec, String> {
    let qos = get_obj(o, "qos")?;
    Ok(ClientSpec {
        qos: QosSpec {
            staleness_threshold: get_u64(qos, "staleness_threshold")? as u32,
            deadline: get_duration(qos, "deadline_us")?,
            min_probability: get_f64(qos, "min_probability")?,
        },
        request_delay: get_duration(o, "request_delay_us")?,
        total_requests: get_u64(o, "total_requests")?,
        pattern: {
            let p = get_obj(o, "pattern")?;
            match get_str(p, "t")? {
                "alternating_write_read" => OpPattern::AlternatingWriteRead,
                "read_only" => OpPattern::ReadOnly,
                "write_only" => OpPattern::WriteOnly,
                "read_fraction" => OpPattern::ReadFraction(get_f64(p, "p")?),
                "write_burst" => OpPattern::WriteBurst(get_u64(p, "n")? as u32),
                other => return Err(format!("unknown op pattern {other:?}")),
            }
        },
        policy: {
            let p = get_obj(o, "policy")?;
            match get_str(p, "t")? {
                "probabilistic" => SelectionPolicy::Probabilistic,
                "all_replicas" => SelectionPolicy::AllReplicas,
                "single_round_robin" => SelectionPolicy::SingleRoundRobin,
                "random_k" => SelectionPolicy::RandomK(get_usize(p, "k")?),
                "greedy_cdf" => SelectionPolicy::GreedyCdf,
                other => return Err(format!("unknown selection policy {other:?}")),
            }
        },
        start_offset: get_duration(o, "start_offset_us")?,
    })
}

fn parse_fault(o: &Obj) -> Result<FaultEvent, String> {
    Ok(FaultEvent {
        at: SimTime::from_micros(get_u64(o, "at_us")?),
        target: parse_target(get_obj(o, "target")?)?,
        kind: {
            let k = get_obj(o, "kind")?;
            match get_str(k, "t")? {
                "crash" => FaultKind::Crash,
                "restart" => FaultKind::Restart,
                "isolate" => FaultKind::Isolate,
                "reconnect" => FaultKind::Reconnect,
                "degrade" => FaultKind::Degrade {
                    factor: get_f64(k, "factor")?,
                },
                "lossy" => FaultKind::Lossy {
                    p: get_f64(k, "p")?,
                },
                "restore_gray" => FaultKind::RestoreGray,
                "cut_link" => FaultKind::CutLink {
                    peer: parse_target(get_obj(k, "peer")?)?,
                },
                "heal_link" => FaultKind::HealLink {
                    peer: parse_target(get_obj(k, "peer")?)?,
                },
                other => return Err(format!("unknown fault kind {other:?}")),
            }
        },
    })
}

fn parse_target(o: &Obj) -> Result<FaultTarget, String> {
    Ok(match get_str(o, "t")? {
        "sequencer" => FaultTarget::Sequencer,
        "publisher" => FaultTarget::Publisher,
        "primary" => FaultTarget::Primary(get_usize(o, "i")?),
        "secondary" => FaultTarget::Secondary(get_usize(o, "i")?),
        "all_primaries" => FaultTarget::AllPrimaries,
        "all_servers" => FaultTarget::AllServers,
        other => return Err(format!("unknown fault target {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_faults, ScheduleBudget};

    #[test]
    fn round_trips_the_paper_profile() {
        let config = ScenarioConfig::paper_validation(200, 0.9, 2, 42);
        let text = config_to_json(&config);
        let back = config_from_json(&text).expect("parses");
        assert_eq!(back, config);
        // Serialization is deterministic and parse∘serialize is identity.
        assert_eq!(config_to_json(&back), text);
    }

    #[test]
    fn round_trips_every_enum_variant() {
        let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, 7);
        config.cdf_bin_us = Some(500);
        config.service_delay = DelayModel::Empirical(vec![
            SimDuration::from_micros(10),
            SimDuration::from_micros(30),
        ]);
        config.link_delay = DelayModel::Exponential {
            mean_us: 123.5,
            min: SimDuration::from_micros(50),
        };
        config.recovery = RecoveryPolicy::default();
        config.overload = OverloadConfig::protective();
        config.detector = FailureDetector::PhiAccrual(PhiAccrualConfig::default());
        config.damping = Some(FlapDamping::default());
        config.object = ObjectKind::Bank;
        config.ordering = OrderingGuarantee::Fifo;
        config.staleness_model = StalenessModel::EmpiricalRateMixture;
        config.storage = StorageConfig::durable();
        config.clients[0].pattern = OpPattern::ReadFraction(0.25);
        config.clients[0].policy = SelectionPolicy::RandomK(3);
        config.clients[1].pattern = OpPattern::WriteBurst(5);
        config.clients[1].policy = SelectionPolicy::GreedyCdf;
        config.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(10),
                target: FaultTarget::Secondary(2),
                kind: FaultKind::CutLink {
                    peer: FaultTarget::Primary(1),
                },
            },
            FaultEvent {
                at: SimTime::from_secs(20),
                target: FaultTarget::Secondary(2),
                kind: FaultKind::HealLink {
                    peer: FaultTarget::Primary(1),
                },
            },
        ];
        let back = config_from_json(&config_to_json(&config)).expect("parses");
        assert_eq!(back, config);
    }

    #[test]
    fn round_trips_generated_schedules() {
        let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, 3).with_fast_detection();
        let budget = ScheduleBudget::quick();
        for seed in 0..50 {
            config.faults = generate_faults(&config, &budget, seed);
            let back = config_from_json(&config_to_json(&config)).expect("parses");
            assert_eq!(back, config, "seed {seed}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(config_from_json("{}").is_err());
        assert!(config_from_json("not json").is_err());
        let good = config_to_json(&ScenarioConfig::paper_validation(200, 0.9, 2, 1));
        let bad = good.replace("\"sequential\"", "\"zigzag\"");
        assert!(config_from_json(&bad).is_err());
    }

    /// The byte fence for repro files: parse -> serialize is the identity
    /// on the checked-in artifact `chaos-smoke` replays.
    #[test]
    fn checked_in_repro_round_trips_to_the_same_bytes() {
        let text = include_str!("../../../results/chaos_repro.json");
        assert_eq!(text.len(), 1756);
        let config = config_from_json(text).expect("checked-in repro parses");
        assert_eq!(config_to_json(&config), text);
    }
}
