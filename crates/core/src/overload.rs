//! Overload protection: bounded admission queues, deadline-aware load
//! shedding, and a graceful-degradation ladder driven by the §5.4
//! timing-failure callback.
//!
//! The paper's framework measures timeliness (§5.2) and detects timing
//! failures (§5.4) but leaves acting on the callback to the application,
//! and sketches admission control only as future work (§7). This module
//! supplies the missing control loop:
//!
//! * **Server side** — each server gateway bounds its service queue and
//!   sheds a read whose remaining deadline budget cannot cover the queue's
//!   current backlog (`(queue_depth + 1) × avg_service_time > d`), replying
//!   [`crate::wire::Payload::Busy`] instead of silently blowing the
//!   deadline.
//! * **Client side** — a `Busy` reply is a strike against the shedder in
//!   the client's one per-replica health state (the quarantine of
//!   [`crate::monitor::InfoRepository`], which also counts silent
//!   replicas), so retries stop hammering a saturated replica until a
//!   timely reply clears it. This module holds no per-replica state.
//! * **Degradation ladder** — when the timing-failure detector's windowed
//!   timely frequency drops below `Pc(d)`, the client walks a configurable
//!   ladder: widen the staleness threshold `a` (shifting selection toward
//!   secondaries), then relax the required probability, and finally reject
//!   locally (serving only sparse probe reads). A sliding window of timely
//!   responses walks the ladder back up.
//!
//! Everything is gated behind [`OverloadConfig::enabled`]; the default is
//! off and the framework behaves bit-identically to a build without this
//! module. On the client side the gate is a type: the gateway holds its
//! ladder position (`ClientOverload`) as an `Option` that is `None` while
//! disabled.

use crate::obs::{ObsEvent, ObsHandle};
use crate::qos::QosSpec;
use crate::timing::TimingFailureDetector;
use aqf_sim::{ActorId, SimDuration, SimTime};

/// One rung of the graceful-degradation ladder.
///
/// Rung `k` (1-based) is active at degradation level `k`; it *adds*
/// `widen_staleness` to the application's staleness threshold `a` and
/// *subtracts* `relax_probability` from the requested `Pc(d)` (floored at
/// zero). Levels beyond the last rung reject requests locally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeStep {
    /// Amount added to the staleness threshold `a` at this rung.
    pub widen_staleness: u32,
    /// Amount subtracted from the requested probability `Pc(d)` at this
    /// rung (clamped to keep the effective probability non-negative).
    pub relax_probability: f64,
}

/// Knobs for the overload-protection subsystem.
///
/// Defaults to [`OverloadConfig::disabled`]: every mechanism off and the
/// system bit-identical to one without overload protection.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// Master switch. When `false` (the default) no queue bound, shedding,
    /// `Busy` strike, degradation, or admission re-evaluation runs.
    pub enabled: bool,
    /// Hard bound on a server gateway's service queue (queued + in
    /// service). Arriving reads beyond the bound are shed with `Busy`.
    /// Must be > 0 when enabled.
    pub queue_bound: usize,
    /// When `true`, a read is also shed early if the replica's backlog
    /// estimate `(queue_depth + 1) × avg_service_time` exceeds the
    /// request's end-to-end deadline — the reply could only ever be late.
    pub deadline_shedding: bool,
    /// Minimum spacing between the probe reads the degradation ladder
    /// still admits in its local-reject state.
    pub probe_interval: SimDuration,
    /// The graceful-degradation ladder, walked from rung 1 downward as the
    /// windowed timely frequency stays below the (effective) `Pc(d)`.
    /// `widen_staleness` must be monotone non-decreasing across rungs.
    pub ladder: Vec<DegradeStep>,
    /// Number of completed requests that must elapse after a ladder
    /// transition before another transition is considered, and the window
    /// length used to judge recovery. Must be in `1..=64` when enabled
    /// (the detector's sliding window is a 64-bit ring).
    pub recover_window: u32,
    /// Headroom factor handed to [`crate::admission::AdmissionController`]
    /// when re-evaluating admission as replicas crash or are quarantined.
    /// Must be in `(0, 1]`.
    pub admission_headroom: f64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl OverloadConfig {
    /// All protection off — bit-identical behavior to the seed system.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            queue_bound: 64,
            deadline_shedding: true,
            probe_interval: SimDuration::from_millis(250),
            ladder: Vec::new(),
            recover_window: 16,
            admission_headroom: 1.0,
        }
    }

    /// A protective preset used by the EXT-OVL experiments: shallow queue
    /// bound, deadline shedding, `Busy` as a quarantine strike, and a
    /// two-rung ladder (widen `a` by 2, then by 4 while relaxing `Pc(d)`).
    pub fn protective() -> Self {
        Self {
            enabled: true,
            queue_bound: 8,
            deadline_shedding: true,
            probe_interval: SimDuration::from_millis(250),
            ladder: vec![
                DegradeStep {
                    widen_staleness: 2,
                    relax_probability: 0.0,
                },
                DegradeStep {
                    widen_staleness: 4,
                    relax_probability: 0.2,
                },
            ],
            recover_window: 16,
            admission_headroom: 1.0,
        }
    }

    /// Validates the knobs, returning the first violation.
    ///
    /// A disabled config is always valid (the knobs are inert).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.queue_bound == 0 {
            return Err("overload.queue_bound must be > 0".into());
        }
        if self.probe_interval == SimDuration::ZERO {
            return Err("overload.probe_interval must be non-zero".into());
        }
        if self.recover_window == 0 || self.recover_window > 64 {
            return Err("overload.recover_window must be in 1..=64".into());
        }
        if !(self.admission_headroom > 0.0 && self.admission_headroom <= 1.0) {
            return Err("overload.admission_headroom must be in (0, 1]".into());
        }
        let mut prev = 0u32;
        for (i, step) in self.ladder.iter().enumerate() {
            if step.widen_staleness < prev {
                return Err(format!(
                    "overload.ladder must be monotone non-decreasing in widen_staleness \
                     (rung {} widens by {} after {})",
                    i + 1,
                    step.widen_staleness,
                    prev
                ));
            }
            if !(0.0..=1.0).contains(&step.relax_probability) {
                return Err(format!(
                    "overload.ladder rung {} relax_probability must be in [0, 1]",
                    i + 1
                ));
            }
            prev = step.widen_staleness;
        }
        Ok(())
    }
}

/// A transition of the client's graceful-degradation controller, surfaced
/// as a metrics event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradeTransition {
    /// Virtual time of the transition, in microseconds.
    pub at_us: u64,
    /// Level before the transition (0 = no degradation).
    pub from_level: u32,
    /// Level after the transition.
    pub to_level: u32,
}

/// The client gateway's overload-protection state: the degradation
/// controller. A gateway holds one only while
/// [`OverloadConfig::enabled`] is set, so a disabled subsystem has no state
/// to consult and no code path to take.
#[derive(Debug)]
pub(crate) struct ClientOverload {
    config: OverloadConfig,
    owner: ActorId,
    obs: ObsHandle,
    /// Current degradation level: 0 = nominal, `1..=ladder.len()` = that
    /// rung of the ladder, `ladder.len() + 1` = local rejection.
    level: u32,
    /// Read outcomes recorded since the last level transition (hysteresis).
    outcomes_since_transition: u32,
    /// Every level transition, in order (metrics/audit).
    transitions: Vec<DegradeTransition>,
    /// The most recent *requested* (un-degraded) specification — the
    /// recovery target the controller steps back up toward.
    requested: Option<QosSpec>,
    /// When the rejection rung last admitted a probe read.
    last_reject_probe_at: Option<SimTime>,
}

impl ClientOverload {
    pub(crate) fn new(config: OverloadConfig, owner: ActorId) -> Self {
        Self {
            config,
            owner,
            obs: ObsHandle::disabled(),
            level: 0,
            outcomes_since_transition: 0,
            transitions: Vec::new(),
            requested: None,
            last_reject_probe_at: None,
        }
    }

    pub(crate) fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    pub(crate) fn level(&self) -> u32 {
        self.level
    }

    pub(crate) fn transitions(&self) -> &[DegradeTransition] {
        &self.transitions
    }

    /// The specification and headroom an admission re-evaluation judges
    /// by, once a read has been submitted.
    pub(crate) fn admission_target(&self) -> Option<(QosSpec, f64)> {
        Some((self.requested?, self.config.admission_headroom))
    }

    fn max_level(&self) -> u32 {
        self.config.ladder.len() as u32 + 1
    }

    /// A read is submitted under `requested`: remembers it as the recovery
    /// target and returns the specification in force at the current level.
    /// `None` when the ladder is exhausted and no probe is due: the read is
    /// answered "no" locally, without contacting (and further loading) any
    /// replica.
    pub(crate) fn admit(&mut self, requested: QosSpec, now: SimTime) -> Option<QosSpec> {
        self.requested = Some(requested);
        if self.level == self.max_level() {
            let probe_due = self
                .last_reject_probe_at
                .is_none_or(|at| now.saturating_since(at) >= self.config.probe_interval);
            if !probe_due {
                return None;
            }
            self.last_reject_probe_at = Some(now);
        }
        Some(self.effective_spec(requested))
    }

    /// The QoS specification in force at the current degradation level:
    /// rung `L` of the ladder widens the staleness threshold and relaxes
    /// `Pc(d)`; level 0 returns the requested spec unchanged. Past the
    /// ladder (rejection mode) the last rung's spec applies to the probe
    /// reads that are still admitted.
    fn effective_spec(&self, requested: QosSpec) -> QosSpec {
        let ladder = &self.config.ladder;
        if self.level == 0 || ladder.is_empty() {
            return requested;
        }
        let step = ladder[(self.level as usize).min(ladder.len()) - 1];
        QosSpec {
            staleness_threshold: requested
                .staleness_threshold
                .saturating_add(step.widen_staleness),
            min_probability: (requested.min_probability - step.relax_probability).max(0.0),
            ..requested
        }
    }

    /// Re-assesses the degradation level after a recorded read outcome:
    /// steps *down* the ladder when the windowed timely frequency falls
    /// below the currently effective `Pc(d)`, and back *up* once the
    /// window clears the client's original requirement. Transitions are
    /// separated by at least `recover_window` outcomes (and the window
    /// must be full), so one bad burst cannot walk the whole ladder.
    pub(crate) fn on_outcome(
        &mut self,
        detector: &TimingFailureDetector,
        now: SimTime,
    ) -> Option<DegradeTransition> {
        let requested = self.requested?;
        self.outcomes_since_transition = self.outcomes_since_transition.saturating_add(1);
        if !detector.window_full() || self.outcomes_since_transition < self.config.recover_window {
            return None;
        }
        let freq = detector.window_frequency()?;
        let effective_pc = self.effective_spec(requested).min_probability;
        let to = if freq < effective_pc && self.level < self.max_level() {
            self.level + 1
        } else if freq >= requested.min_probability && self.level > 0 {
            self.level - 1
        } else {
            return None;
        };
        Some(self.transition_to(to, now))
    }

    /// An admission re-evaluation found the requested specification no
    /// longer attainable: step down proactively instead of waiting for the
    /// windowed frequency to confirm the capacity loss request by request.
    pub(crate) fn step_down(&mut self, now: SimTime) -> Option<DegradeTransition> {
        (self.level < self.max_level()).then(|| self.transition_to(self.level + 1, now))
    }

    fn transition_to(&mut self, to: u32, now: SimTime) -> DegradeTransition {
        let transition = DegradeTransition {
            at_us: now.as_micros(),
            from_level: self.level,
            to_level: to,
        };
        self.level = to;
        self.outcomes_since_transition = 0;
        self.transitions.push(transition);
        self.obs.emit(now, self.owner, || ObsEvent::Ladder {
            from_level: transition.from_level as u64,
            to_level: to as u64,
        });
        transition
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_valid() {
        let c = OverloadConfig::default();
        assert!(!c.enabled);
        assert_eq!(c, OverloadConfig::disabled());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn disabled_ignores_bad_knobs() {
        let c = OverloadConfig {
            queue_bound: 0,
            ..OverloadConfig::disabled()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn protective_is_valid() {
        assert!(OverloadConfig::protective().validate().is_ok());
    }

    #[test]
    fn rejects_zero_queue_bound() {
        let c = OverloadConfig {
            queue_bound: 0,
            ..OverloadConfig::protective()
        };
        assert!(c.validate().unwrap_err().contains("queue_bound"));
    }

    #[test]
    fn rejects_non_monotone_ladder() {
        let mut c = OverloadConfig::protective();
        c.ladder = vec![
            DegradeStep {
                widen_staleness: 4,
                relax_probability: 0.0,
            },
            DegradeStep {
                widen_staleness: 2,
                relax_probability: 0.0,
            },
        ];
        assert!(c.validate().unwrap_err().contains("monotone"));
    }

    #[test]
    fn rejects_zero_probe_interval() {
        let c = OverloadConfig {
            probe_interval: SimDuration::ZERO,
            ..OverloadConfig::protective()
        };
        assert!(c.validate().unwrap_err().contains("probe_interval"));
    }

    #[test]
    fn rejects_bad_recover_window() {
        for w in [0u32, 65] {
            let c = OverloadConfig {
                recover_window: w,
                ..OverloadConfig::protective()
            };
            assert!(c.validate().unwrap_err().contains("recover_window"));
        }
    }

    #[test]
    fn rejects_bad_headroom() {
        let c = OverloadConfig {
            admission_headroom: 0.0,
            ..OverloadConfig::protective()
        };
        assert!(c.validate().unwrap_err().contains("admission_headroom"));
    }
}
