//! Canonical scenario configurations for the simulator-core measurements
//! and the overload studies.
//!
//! The allocation gate on the 16-actor faulty world
//! (`crates/bench/benches/alloc_gates.rs`) and the event-count and
//! trace-digest pins of `tests/msgplane.rs` run exactly these
//! configurations, and EXT-OVL, the trace capture of `aqf-experiments` and
//! the overload tests run [`overload_config`]. Keep these definitions
//! stable: changing a workload invalidates every recorded number and pin.

use crate::config::{ClientSpec, FaultEvent, FaultKind, FaultTarget, OpPattern, ScenarioConfig};
use aqf_core::{QosSpec, RecoveryPolicy, SelectionPolicy};
use aqf_sim::{SimDuration, SimTime};

/// Deployment sizes of the canonical worlds, expressed as the
/// total actor count (sequencer + primaries + secondaries + clients).
pub const WORLD_BENCH_SIZES: [usize; 3] = [4, 16, 64];

/// Builds the canonical end-to-end benchmark scenario with `actors` total
/// actors (one of [`WORLD_BENCH_SIZES`]), optionally with the standard
/// fault schedule (crash + restart, gray degradation, per-actor loss,
/// global loss and duplication) applied.
///
/// # Panics
///
/// Panics if `actors` is not one of the supported sizes.
pub fn world_bench_config(actors: usize, faults: bool) -> ScenarioConfig {
    // sequencer + np primaries + ns secondaries + nc clients == actors
    let (np, ns, nc) = match actors {
        4 => (1, 1, 1),
        16 => (4, 9, 2),
        64 => (16, 41, 6),
        _ => panic!("unsupported world bench size {actors}"),
    };
    let mut config = ScenarioConfig::paper_validation(160, 0.9, 2, 7 + actors as u64);
    config.num_primaries = np;
    config.num_secondaries = ns;
    config.clients = (0..nc)
        .map(|i| {
            let mut spec = ClientSpec::paper_measured_client(160, 0.9);
            // Pack requests more densely than the paper's 1 Hz clients so
            // the bench exercises the selection + delivery hot path rather
            // than idle group-maintenance ticks.
            spec.request_delay = SimDuration::from_millis(100);
            spec.total_requests = 50;
            spec.start_offset = SimDuration::from_millis(37 * i as u64);
            spec
        })
        .collect();
    if faults {
        config.loss_probability = 0.02;
        config.duplicate_probability = 0.01;
        config.faults = vec![
            FaultEvent {
                at: SimTime::from_secs(2),
                target: FaultTarget::Secondary(0),
                kind: FaultKind::Degrade { factor: 3.0 },
            },
            FaultEvent {
                at: SimTime::from_secs(3),
                target: FaultTarget::Secondary(1 % ns),
                kind: FaultKind::Lossy { p: 0.15 },
            },
            FaultEvent {
                at: SimTime::from_secs(4),
                target: FaultTarget::Primary(0),
                kind: FaultKind::Crash,
            },
            FaultEvent {
                at: SimTime::from_secs(8),
                target: FaultTarget::Primary(0),
                kind: FaultKind::Restart,
            },
            FaultEvent {
                at: SimTime::from_secs(9),
                target: FaultTarget::Secondary(0),
                kind: FaultKind::RestoreGray,
            },
            FaultEvent {
                at: SimTime::from_secs(9),
                target: FaultTarget::Secondary(1 % ns),
                kind: FaultKind::RestoreGray,
            },
        ];
    }
    config
}

/// The overload deployment: the paper's 11-server profile (deadline
/// 200 ms, `Pc = 0.9`) with fast failure detection, overload protection on,
/// retries and quarantine on with hedging off, and `clients` closed-loop
/// clients each issuing `requests` operations — 80 % reads, a 250 ms think
/// time, starts staggered by 50 ms. Eight clients are 4× the paper's two.
pub fn overload_config(clients: usize, requests: u64, seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::paper_validation(200, 0.9, 2, seed).with_fast_detection();
    config.overload = true;
    config.recovery = RecoveryPolicy {
        hedge_fraction: None,
        ..RecoveryPolicy::default()
    };
    config.clients = (0..clients)
        .map(|i| ClientSpec {
            qos: QosSpec::new(2, SimDuration::from_millis(200), 0.9).expect("valid overload qos"),
            request_delay: SimDuration::from_millis(250),
            total_requests: requests,
            pattern: OpPattern::ReadFraction(0.8),
            policy: SelectionPolicy::Probabilistic,
            start_offset: SimDuration::from_millis(50 * i as u64),
        })
        .collect();
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_validate_at_every_size() {
        for actors in WORLD_BENCH_SIZES {
            for faults in [false, true] {
                let config = world_bench_config(actors, faults);
                assert!(config.validate().is_ok(), "size {actors} faults {faults}");
                assert_eq!(
                    config.num_servers() + config.clients.len(),
                    actors,
                    "size {actors} adds up"
                );
                assert_eq!(config.faults.is_empty(), !faults);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsupported world bench size")]
    fn unsupported_size_panics() {
        let _ = world_bench_config(5, false);
    }
}
