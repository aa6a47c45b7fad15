//! Overload protection: bounded admission queues, deadline-aware load
//! shedding, client-side circuit breakers, and a graceful-degradation
//! ladder driven by the §5.4 timing-failure callback.
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
//!   deadline. The sequencer additionally sheds *new* updates once its
//!   commit backlog (unassigned + commit-ready updates) crosses a
//!   watermark, so the GSN pipeline cannot wedge under a write flood.
//!   A `Busy` reply is an explicit, healthy "no" — it is classified apart
//!   from gray faults and never contributes quarantine strikes.
//! * **Client side** — a per-replica circuit breaker (closed → open →
//!   half-open) sits underneath [`crate::client::RecoveryPolicy`] so
//!   retries and hedges stop hammering a saturated replica, with a timely
//!   probe reply reclosing the breaker.
//! * **Degradation ladder** — when the timing-failure detector's windowed
//!   timely frequency drops below `Pc(d)`, the client walks a configurable
//!   ladder: widen the staleness threshold `a` (shifting selection toward
//!   secondaries), then relax the required probability, and finally reject
//!   locally (serving only sparse probe reads). A sliding window of timely
//!   responses walks the ladder back up.
//!
//! Everything is gated behind [`OverloadConfig::enabled`]; the default is
//! off and the framework behaves bit-identically to a build without this
//! module.

use aqf_sim::SimDuration;

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
    /// breaker, degradation, or admission re-evaluation runs.
    pub enabled: bool,
    /// Hard bound on a server gateway's service queue (queued + in
    /// service). Arriving reads beyond the bound are shed with `Busy`.
    /// Must be > 0 when enabled.
    pub queue_bound: usize,
    /// When `true`, a read is also shed early if the replica's backlog
    /// estimate `(queue_depth + 1) × avg_service_time` exceeds the
    /// request's end-to-end deadline — the reply could only ever be late.
    pub deadline_shedding: bool,
    /// Sequencer-only commit-backlog watermark: once
    /// `unassigned + commit_ready` updates reach this bound, *new* updates
    /// are shed with `Busy` before receiving a GSN. Duplicates of already
    /// sequenced updates are still answered from the reply cache.
    pub sequencer_watermark: usize,
    /// Consecutive `Busy`/timeout strikes against one replica before the
    /// client's circuit breaker opens for it.
    pub breaker_threshold: u32,
    /// How long an open breaker blocks selection of the replica before
    /// transitioning to half-open.
    pub breaker_open: SimDuration,
    /// Minimum spacing between probe requests allowed through a half-open
    /// breaker (and between probe reads admitted while the degradation
    /// ladder is in its local-reject state).
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
            sequencer_watermark: 128,
            breaker_threshold: 3,
            breaker_open: SimDuration::from_millis(500),
            probe_interval: SimDuration::from_millis(250),
            ladder: Vec::new(),
            recover_window: 16,
            admission_headroom: 1.0,
        }
    }

    /// A protective preset used by the EXT-OVL experiments: shallow queue
    /// bound, deadline shedding, sequencer watermark, breakers, and a
    /// two-rung ladder (widen `a` by 2, then by 4 while relaxing `Pc(d)`).
    pub fn protective() -> Self {
        Self {
            enabled: true,
            queue_bound: 8,
            deadline_shedding: true,
            sequencer_watermark: 32,
            breaker_threshold: 3,
            breaker_open: SimDuration::from_millis(500),
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
        if self.sequencer_watermark == 0 {
            return Err("overload.sequencer_watermark must be > 0".into());
        }
        if self.breaker_threshold == 0 {
            return Err("overload.breaker_threshold must be > 0".into());
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
