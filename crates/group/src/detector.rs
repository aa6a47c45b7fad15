//! Failure detection policies for the group layer.
//!
//! The seed detector is a fixed binary timeout: a member silent for longer
//! than `failure_timeout` is suspected. That is exactly wrong under gray
//! faults — a degraded-but-alive member oscillates across the threshold and
//! is evicted, re-merged, and evicted again, churning the sequencer and
//! publisher roles. The φ-accrual detector (Hayashibara et al., SRDS 2004)
//! instead keeps a sliding window of observed heartbeat inter-arrival times
//! per monitored peer and converts the current silence into a *continuous* suspicion
//! level
//!
//! ```text
//! φ(t) = −log10( P(a heartbeat arrives later than t) )
//! ```
//!
//! under a normal approximation of the inter-arrival distribution. A peer is
//! suspected once φ crosses a configurable threshold, so the effective
//! timeout adapts to each peer's measured arrival jitter: a noisy-but-alive
//! link pushes the window mean and deviation up and the detector backs off,
//! while a genuinely crashed peer accrues suspicion quickly once silence
//! leaves the observed distribution. This mirrors the paper's method of
//! estimating everything else — service time, staleness — from measured
//! distributions rather than fixed constants.
//!
//! [`FlapDamping`] is the complementary leader-side policy: members that
//! repeatedly get suspected and re-merged accrue an exponentially growing
//! re-admission hold-down (BGP-style route-flap damping), bounding the view
//! churn a single gray-faulted member can inflict on the group.

use aqf_sim::{SimDuration, SimTime};
use aqf_stats::SlidingWindow;

/// Failure-detection policy selector for a
/// [`GroupEndpoint`](crate::GroupEndpoint).
///
/// The default is the seed's fixed binary timeout, so existing
/// configurations replay bit-identically; the φ-accrual mode is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailureDetector {
    /// Binary timeout: suspect a member silent for longer than the
    /// endpoint's `failure_timeout`.
    #[default]
    FixedTimeout,
    /// φ-accrual: suspect a member whose silence has accrued a suspicion
    /// level of at least `threshold` against its observed heartbeat
    /// inter-arrival distribution.
    PhiAccrual(PhiAccrualConfig),
}

/// Tuning knobs for the φ-accrual mode of [`FailureDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiAccrualConfig {
    /// Suspicion threshold. φ = 8 means "the chance a heartbeat is merely
    /// late is below 10⁻⁸ under the observed distribution" (≈ 5.3 standard
    /// deviations of silence beyond the mean inter-arrival).
    pub threshold: f64,
    /// Number of inter-arrival samples retained per peer.
    pub window: usize,
    /// Floor on the standard deviation used in the φ computation, so a
    /// perfectly regular arrival history does not make the detector
    /// hair-triggered.
    pub min_std_dev: SimDuration,
}

impl Default for PhiAccrualConfig {
    fn default() -> Self {
        Self {
            threshold: 8.0,
            window: 32,
            min_std_dev: SimDuration::from_millis(100),
        }
    }
}

/// Leader-side re-admission hold-down for flapping members (BGP-style).
///
/// Every time the leader excludes a member as suspected, the member's flap
/// count rises (unless its last flap is older than `forget_after`, which
/// resets the history). The first exclusion carries no penalty — a genuine
/// crash-and-restart rejoins immediately — but from the second flap on the
/// member must stay quiet for `base_hold · 2^(flaps−2)` (capped at
/// `max_hold`) before a join request or stray heartbeat is honored again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlapDamping {
    /// Hold-down applied at the second flap; doubles per further flap.
    pub base_hold: SimDuration,
    /// Upper bound on the hold-down however often the member flaps.
    pub max_hold: SimDuration,
    /// A member whose last flap is older than this starts over with a
    /// clean history.
    pub forget_after: SimDuration,
}

impl Default for FlapDamping {
    fn default() -> Self {
        Self {
            base_hold: SimDuration::from_secs(2),
            max_hold: SimDuration::from_secs(30),
            forget_after: SimDuration::from_secs(60),
        }
    }
}

impl FlapDamping {
    /// The hold-down earned by the `count`-th consecutive flap.
    pub fn hold_for(&self, count: u32) -> SimDuration {
        if count < 2 {
            return SimDuration::ZERO;
        }
        let shift = (count - 2).min(32);
        let us = self
            .base_hold
            .as_micros()
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
        SimDuration::from_micros(us.min(self.max_hold.as_micros()))
    }
}

/// Per-peer arrival history and suspicion computation for the φ-accrual
/// detector.
#[derive(Debug)]
pub struct PhiAccrual {
    intervals: SlidingWindow,
    last_arrival: SimTime,
}

impl PhiAccrual {
    /// Creates a detector primed with one synthetic sample of `expected`
    /// (the endpoint's tick interval), so a peer that never speaks at all
    /// still accrues suspicion from `now` onward.
    pub fn new(cfg: &PhiAccrualConfig, expected: SimDuration, now: SimTime) -> Self {
        let mut intervals = SlidingWindow::new(cfg.window.max(1));
        intervals.push(expected.as_micros().max(1));
        Self {
            intervals,
            last_arrival: now,
        }
    }

    /// Records a heartbeat (any liveness-bearing message) arriving at `now`.
    pub fn heartbeat(&mut self, now: SimTime) {
        if let Some(delta) = now.checked_since(self.last_arrival) {
            if !delta.is_zero() {
                self.intervals.push(delta.as_micros());
            }
        }
        self.last_arrival = now;
    }

    /// The suspicion level accrued by the silence since the last arrival.
    pub fn phi(&self, now: SimTime, cfg: &PhiAccrualConfig) -> f64 {
        let t = now.saturating_since(self.last_arrival).as_micros() as f64;
        let mean = self.intervals.mean().unwrap_or(0.0);
        let n = self.intervals.len() as f64;
        let var = self
            .intervals
            .iter()
            .map(|x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n.max(1.0);
        let std = var.sqrt().max(cfg.min_std_dev.as_micros() as f64).max(1.0);
        // Logistic approximation of the normal tail (as in Akka's accrual
        // detector): cheap, monotone, and accurate to the precision a
        // threshold comparison needs.
        let y = (t - mean) / std;
        let e = (-y * (1.5976 + 0.070566 * y * y)).exp();
        let p_later = if t > mean {
            e / (1.0 + e)
        } else {
            1.0 - 1.0 / (1.0 + e)
        };
        -p_later.max(1e-300).log10()
    }

    /// Whether the accrued suspicion is at or above the threshold.
    pub fn is_suspect(&self, now: SimTime, cfg: &PhiAccrualConfig) -> bool {
        self.phi(now, cfg) >= cfg.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn phi_grows_with_silence() {
        let cfg = PhiAccrualConfig::default();
        let mut d = PhiAccrual::new(&cfg, SimDuration::from_millis(250), t(0));
        for i in 1..=10 {
            d.heartbeat(t(i * 250));
        }
        let now = t(2500);
        let phi_soon = d.phi(now + SimDuration::from_millis(100), &cfg);
        let phi_later = d.phi(now + SimDuration::from_millis(900), &cfg);
        let phi_much_later = d.phi(now + SimDuration::from_secs(5), &cfg);
        assert!(phi_soon < phi_later && phi_later < phi_much_later);
        assert!(!d.is_suspect(now + SimDuration::from_millis(300), &cfg));
        assert!(d.is_suspect(now + SimDuration::from_secs(5), &cfg));
    }

    #[test]
    fn jittery_arrivals_raise_the_effective_timeout() {
        let cfg = PhiAccrualConfig::default();
        let mut steady = PhiAccrual::new(&cfg, SimDuration::from_millis(250), t(0));
        let mut jittery = PhiAccrual::new(&cfg, SimDuration::from_millis(250), t(0));
        let mut now_s = t(0);
        let mut now_j = t(0);
        for i in 0..20u64 {
            now_s += SimDuration::from_millis(250);
            steady.heartbeat(now_s);
            // The jittery peer alternates 100 ms / 700 ms gaps (same mean
            // order of magnitude, much higher variance).
            now_j += SimDuration::from_millis(if i % 2 == 0 { 100 } else { 700 });
            jittery.heartbeat(now_j);
        }
        let silence = SimDuration::from_millis(1200);
        assert!(
            jittery.phi(now_j + silence, &cfg) < steady.phi(now_s + silence, &cfg),
            "observed jitter must lower suspicion for the same silence"
        );
    }

    #[test]
    fn heartbeat_resets_suspicion() {
        let cfg = PhiAccrualConfig::default();
        let mut d = PhiAccrual::new(&cfg, SimDuration::from_millis(250), t(0));
        for i in 1..=5 {
            d.heartbeat(t(i * 250));
        }
        assert!(d.is_suspect(t(20_000), &cfg));
        d.heartbeat(t(20_000));
        assert!(!d.is_suspect(t(20_100), &cfg));
    }

    #[test]
    fn bootstrap_sample_suspects_a_silent_peer() {
        // A peer that never sends anything must still become suspect.
        let cfg = PhiAccrualConfig::default();
        let d = PhiAccrual::new(&cfg, SimDuration::from_millis(250), t(0));
        assert!(!d.is_suspect(t(250), &cfg));
        assert!(d.is_suspect(t(60_000), &cfg));
    }

    #[test]
    fn hold_down_doubles_and_caps() {
        let damp = FlapDamping {
            base_hold: SimDuration::from_secs(2),
            max_hold: SimDuration::from_secs(30),
            forget_after: SimDuration::from_secs(60),
        };
        assert_eq!(damp.hold_for(0), SimDuration::ZERO);
        assert_eq!(damp.hold_for(1), SimDuration::ZERO);
        assert_eq!(damp.hold_for(2), SimDuration::from_secs(2));
        assert_eq!(damp.hold_for(3), SimDuration::from_secs(4));
        assert_eq!(damp.hold_for(4), SimDuration::from_secs(8));
        assert_eq!(damp.hold_for(10), SimDuration::from_secs(30));
        assert_eq!(damp.hold_for(u32::MAX), SimDuration::from_secs(30));
    }

    #[test]
    fn config_defaults_are_sane() {
        assert_eq!(FailureDetector::default(), FailureDetector::FixedTimeout);
        let cfg = PhiAccrualConfig::default();
        assert!(cfg.threshold > 0.0 && cfg.window > 0);
    }
}
