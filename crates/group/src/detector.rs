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
//! suspected once φ crosses [`PHI_THRESHOLD`], so the effective timeout
//! adapts to each peer's measured arrival jitter: a noisy-but-alive link
//! pushes the window mean and deviation up and the detector backs off,
//! while a genuinely crashed peer accrues suspicion quickly once silence
//! leaves the observed distribution. This mirrors the paper's method of
//! estimating everything else — service time, staleness — from measured
//! distributions rather than fixed constants.
//!
//! Flap damping ([`flap_hold`]) is the complementary leader-side policy:
//! members that repeatedly get suspected and re-merged accrue an
//! exponentially growing re-admission hold-down (BGP-style route-flap
//! damping), bounding the view churn a single gray-faulted member can
//! inflict on the group.
//!
//! Both policies are tuned by the constants below.

use aqf_sim::{SimDuration, SimTime};
use aqf_stats::SlidingWindow;

/// Failure-detection policy selector for a
/// [`GroupEndpoint`](crate::GroupEndpoint).
///
/// The default is the seed's fixed binary timeout, so existing
/// configurations replay bit-identically; the φ-accrual mode is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureDetector {
    /// Binary timeout: suspect a member silent for longer than the
    /// endpoint's `failure_timeout`.
    #[default]
    FixedTimeout,
    /// φ-accrual: suspect a member whose silence has accrued a suspicion
    /// level of at least [`PHI_THRESHOLD`] against its observed heartbeat
    /// inter-arrival distribution.
    PhiAccrual,
}

/// φ-accrual suspicion threshold. φ = 8 means "the chance a heartbeat is
/// merely late is below 10⁻⁸ under the observed distribution" (≈ 5.3
/// standard deviations of silence beyond the mean inter-arrival).
pub const PHI_THRESHOLD: f64 = 8.0;

/// Inter-arrival samples the φ-accrual detector retains per peer.
pub const PHI_WINDOW: usize = 32;

/// Floor on the standard deviation used in the φ computation, so a
/// perfectly regular arrival history does not make the detector
/// hair-triggered.
pub const PHI_MIN_STD_DEV: SimDuration = SimDuration::from_millis(100);

/// Flap damping's hold-down at a member's second flap; it doubles per
/// further flap.
pub const DAMPING_BASE_HOLD: SimDuration = SimDuration::from_secs(2);

/// Upper bound on the flap-damping hold-down however often a member flaps.
pub const DAMPING_MAX_HOLD: SimDuration = SimDuration::from_secs(30);

/// A member whose last flap is older than this starts over with a clean
/// history.
pub const DAMPING_FORGET_AFTER: SimDuration = SimDuration::from_secs(60);

const _: () = assert!(PHI_THRESHOLD > 0.0);
const _: () = assert!(PHI_WINDOW > 0);
const _: () = assert!(PHI_MIN_STD_DEV.as_micros() > 0);
const _: () = assert!(DAMPING_BASE_HOLD.as_micros() > 0);
const _: () = assert!(DAMPING_MAX_HOLD.as_micros() >= DAMPING_BASE_HOLD.as_micros());
// A member released from the longest hold-down still has its flaps on
// record, so its next flap holds it down longer rather than not at all.
const _: () = assert!(DAMPING_FORGET_AFTER.as_micros() > DAMPING_MAX_HOLD.as_micros());

/// The flap-damping hold-down earned by a member's `count`-th consecutive
/// flap (BGP-style route-flap damping): none for the first exclusion — a
/// genuine crash-and-restart rejoins immediately — then
/// `DAMPING_BASE_HOLD · 2^(count−2)`, capped at [`DAMPING_MAX_HOLD`].
pub fn flap_hold(count: u32) -> SimDuration {
    if count < 2 {
        return SimDuration::ZERO;
    }
    let shift = (count - 2).min(32);
    let us = DAMPING_BASE_HOLD
        .as_micros()
        .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
    SimDuration::from_micros(us.min(DAMPING_MAX_HOLD.as_micros()))
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
    pub fn new(expected: SimDuration, now: SimTime) -> Self {
        let mut intervals = SlidingWindow::new(PHI_WINDOW);
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
    pub fn phi(&self, now: SimTime) -> f64 {
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
        let std = var.sqrt().max(PHI_MIN_STD_DEV.as_micros() as f64);
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

    /// Whether the accrued suspicion is at or above [`PHI_THRESHOLD`].
    pub fn is_suspect(&self, now: SimTime) -> bool {
        self.phi(now) >= PHI_THRESHOLD
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
        let mut d = PhiAccrual::new(SimDuration::from_millis(250), t(0));
        for i in 1..=10 {
            d.heartbeat(t(i * 250));
        }
        let now = t(2500);
        let phi_soon = d.phi(now + SimDuration::from_millis(100));
        let phi_later = d.phi(now + SimDuration::from_millis(900));
        let phi_much_later = d.phi(now + SimDuration::from_secs(5));
        assert!(phi_soon < phi_later && phi_later < phi_much_later);
        assert!(!d.is_suspect(now + SimDuration::from_millis(300)));
        assert!(d.is_suspect(now + SimDuration::from_secs(5)));
    }

    #[test]
    fn jittery_arrivals_raise_the_effective_timeout() {
        let mut steady = PhiAccrual::new(SimDuration::from_millis(250), t(0));
        let mut jittery = PhiAccrual::new(SimDuration::from_millis(250), t(0));
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
            jittery.phi(now_j + silence) < steady.phi(now_s + silence),
            "observed jitter must lower suspicion for the same silence"
        );
    }

    #[test]
    fn heartbeat_resets_suspicion() {
        let mut d = PhiAccrual::new(SimDuration::from_millis(250), t(0));
        for i in 1..=5 {
            d.heartbeat(t(i * 250));
        }
        assert!(d.is_suspect(t(20_000)));
        d.heartbeat(t(20_000));
        assert!(!d.is_suspect(t(20_100)));
    }

    #[test]
    fn bootstrap_sample_suspects_a_silent_peer() {
        // A peer that never sends anything must still become suspect.
        let d = PhiAccrual::new(SimDuration::from_millis(250), t(0));
        assert!(!d.is_suspect(t(250)));
        assert!(d.is_suspect(t(60_000)));
    }

    #[test]
    fn hold_down_doubles_and_caps() {
        assert_eq!(flap_hold(0), SimDuration::ZERO);
        assert_eq!(flap_hold(1), SimDuration::ZERO);
        assert_eq!(flap_hold(2), SimDuration::from_secs(2));
        assert_eq!(flap_hold(3), SimDuration::from_secs(4));
        assert_eq!(flap_hold(4), SimDuration::from_secs(8));
        assert_eq!(flap_hold(10), SimDuration::from_secs(30));
        assert_eq!(flap_hold(u32::MAX), SimDuration::from_secs(30));
    }

    #[test]
    fn config_defaults_are_sane() {
        assert_eq!(FailureDetector::default(), FailureDetector::FixedTimeout);
    }
}
