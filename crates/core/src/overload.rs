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
//!   timely frequency drops below `Pc(d)`, the client walks a fixed
//!   two-rung ladder: widen the staleness threshold `a` (shifting selection
//!   toward secondaries), then widen it further while relaxing the
//!   required probability, and finally reject locally (serving only sparse
//!   probe reads). A sliding window of timely responses walks the ladder
//!   back up.
//!
//! Everything is gated behind one switch, the `overload` flag of
//! [`crate::ServerConfig`] and [`crate::ClientConfig`]; the default is off
//! and the framework behaves bit-identically to a build without this
//! module. On the client side the gate is a type: the gateway holds its
//! ladder position (`ClientOverload`) as an `Option` that is `None` while
//! disabled. The values the subsystem runs with are constants, each in the
//! module that reads it: the ladder, the recovery window and the probe
//! interval here, the queue bound in [`crate::shell`]; admission
//! re-evaluation is [`crate::admission::decide`].

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
struct DegradeStep {
    widen_staleness: u32,
    relax_probability: f64,
}

/// The ladder, walked from rung 1 downward while the windowed timely
/// frequency stays below the effective `Pc(d)`: widen `a` by 2, then by 4
/// while relaxing `Pc(d)` by 0.2.
const LADDER: [DegradeStep; 2] = [
    DegradeStep {
        widen_staleness: 2,
        relax_probability: 0.0,
    },
    DegradeStep {
        widen_staleness: 4,
        relax_probability: 0.2,
    },
];

/// Completed reads that must elapse after a ladder transition before
/// another is considered, and the length of the detector's sliding window
/// that judges recovery.
pub(crate) const RECOVER_WINDOW: u32 = 16;

/// Minimum spacing between the probe reads the ladder still admits in its
/// local-reject state.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(250);

// Each rung widens at least as much as the one before it, and relaxes a
// probability by an amount in [0, 1].
const _: () = {
    let mut rung = 0;
    let mut widened = 0;
    while rung < LADDER.len() {
        let step = LADDER[rung];
        assert!(step.widen_staleness >= widened, "ladder not monotone");
        assert!(step.relax_probability >= 0.0 && step.relax_probability <= 1.0);
        widened = step.widen_staleness;
        rung += 1;
    }
};
// The detector's sliding window is a 64-bit ring.
const _: () = assert!(RECOVER_WINDOW >= 1 && RECOVER_WINDOW <= 64);
const _: () = assert!(PROBE_INTERVAL.as_micros() > 0);

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
/// controller. A gateway holds one only while its `overload` switch is on,
/// so a disabled subsystem has no state to consult and no code path to
/// take.
#[derive(Debug)]
pub(crate) struct ClientOverload {
    owner: ActorId,
    obs: ObsHandle,
    /// Current degradation level: 0 = nominal, `1..=LADDER.len()` = that
    /// rung of the ladder, `LADDER.len() + 1` = local rejection.
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
    pub(crate) fn new(owner: ActorId) -> Self {
        Self {
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

    /// The specification an admission re-evaluation judges by, once a read
    /// has been submitted.
    pub(crate) fn admission_target(&self) -> Option<QosSpec> {
        self.requested
    }

    fn max_level(&self) -> u32 {
        LADDER.len() as u32 + 1
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
                .is_none_or(|at| now.saturating_since(at) >= PROBE_INTERVAL);
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
        if self.level == 0 {
            return requested;
        }
        let step = LADDER[(self.level as usize).min(LADDER.len()) - 1];
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
    /// separated by at least `RECOVER_WINDOW` outcomes (and the window
    /// must be full), so one bad burst cannot walk the whole ladder.
    pub(crate) fn on_outcome(
        &mut self,
        detector: &TimingFailureDetector,
        now: SimTime,
    ) -> Option<DegradeTransition> {
        let requested = self.requested?;
        self.outcomes_since_transition = self.outcomes_since_transition.saturating_add(1);
        if !detector.window_full() || self.outcomes_since_transition < RECOVER_WINDOW {
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
